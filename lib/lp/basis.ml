type mat = {
  m : int;
  col_start : int array;
  row_idx : int array;
  coef : float array;
}

let pivot_tol = 1e-10
let refactor_every = 64

(* P B = L U at one factorization, never written once built.  Strict L
   (unit diagonal implied) is held column by column and strict U row by
   row, each list in ascending index order, exact zeros left out.  That
   one layout per triangle serves both solves with every sum taken in
   the order of the dense loops (see [ftran] and [btran]).  One small
   array per row or column keeps every block of a factor that outlives a
   minor collection in the GC's size-class pools; flat arrays of all
   entries would be large blocks, which the runtime allocates one by one
   outside them.  [perm.(i)] is the basis-matrix row factored as row
   [i], [udiag] holds the pivots. *)
type factor = {
  fbasis : int array;
  perm : int array;
  udiag : float array;
  l_idx : int array array;    (* column j of L: its rows below j *)
  l_val : float array array;
  u_idx : int array array;    (* row i of U: its columns right of i *)
  u_val : float array array;
}

(* Working memory of one domain's solves: the sparse elimination's rows
   and column patterns, the solve temporary and the eta file of the one
   live [t] built on it.  Every array is grown on demand and kept, so a
   run of factorizations allocates only the factors themselves, and the
   elimination holds the basis nonzeros and their fill-in, never an
   m x m matrix.  Rows are named by their row [r] in the basis matrix;
   a row's place in the elimination order is its position. *)
type scratch = {
  mutable cap : int;
  mutable a_col : int array array;   (* row r's active entries, unordered *)
  mutable a_val : float array array;
  mutable a_len : int array;
  mutable m_col : int array array;   (* row r's multipliers (its L row) *)
  mutable m_val : float array array;
  mutable m_len : int array;
  mutable c_row : int array array;   (* rows that have had an entry in column j *)
  mutable c_len : int array;
  mutable pos : int array;           (* position of row r *)
  mutable at : int array;            (* row at position i *)
  mutable cand : int array;          (* one column's candidate rows ... *)
  mutable cand_e : int array;        (* ... and their entry in it *)
  mutable mark : int array;          (* column -> pivot row entry, or -1 *)
  mutable seen : int array;          (* pivot row entry -> last row stamp *)
  mutable stamp : int;
  mutable nz : int array;            (* the pivot row's nonzero columns ... *)
  mutable nzv : float array;         (* ... and values *)
  mutable cnt : int array;           (* extraction counts and cursors *)
  mutable t_row : int array;         (* U by columns, for the transpose *)
  mutable t_val : float array;
  mutable w : float array;           (* ftran / btran temporary *)
  eta_col : float array array;       (* eta columns, reused *)
  eta_row : int array;
}

let scratch () =
  { cap = 0; a_col = [||]; a_val = [||]; a_len = [||]; m_col = [||];
    m_val = [||]; m_len = [||]; c_row = [||]; c_len = [||]; pos = [||];
    at = [||]; cand = [||]; cand_e = [||]; mark = [||]; seen = [||];
    stamp = 0; nz = [||]; nzv = [||]; cnt = [| 0 |]; t_row = [||];
    t_val = [||]; w = [||];
    eta_col = Array.make refactor_every [||];
    eta_row = Array.make refactor_every 0 }

let reserve sc m =
  if m > sc.cap then begin
    let rows a = Array.append a (Array.make (m - sc.cap) [||]) in
    sc.a_col <- rows sc.a_col;
    sc.a_val <- rows sc.a_val;
    sc.m_col <- rows sc.m_col;
    sc.m_val <- rows sc.m_val;
    sc.c_row <- rows sc.c_row;
    sc.cap <- m;
    sc.a_len <- Array.make m 0;
    sc.m_len <- Array.make m 0;
    sc.c_len <- Array.make m 0;
    sc.pos <- Array.make m 0;
    sc.at <- Array.make m 0;
    sc.cand <- Array.make m 0;
    sc.cand_e <- Array.make m 0;
    sc.mark <- Array.make m (-1);
    sc.seen <- Array.make m (-1);
    sc.nz <- Array.make m 0;
    sc.nzv <- Array.make m 0.;
    sc.cnt <- Array.make (m + 1) 0;
    sc.w <- Array.make m 0.
  end

(* Append to slot [r] of a family of growable rows, doubling on demand. *)
let push_int rows len r x =
  let n = len.(r) in
  if n = Array.length rows.(r) then begin
    let a = Array.make (Int.max 4 (2 * n)) 0 in
    Array.blit rows.(r) 0 a 0 n;
    rows.(r) <- a
  end;
  rows.(r).(n) <- x;
  len.(r) <- n + 1

let push_entry cols vals len r c v =
  let n = len.(r) in
  if n = Array.length cols.(r) then begin
    let size = Int.max 4 (2 * n) in
    let a = Array.make size 0 and b = Array.make size 0. in
    Array.blit cols.(r) 0 a 0 n;
    Array.blit vals.(r) 0 b 0 n;
    cols.(r) <- a;
    vals.(r) <- b
  end;
  cols.(r).(n) <- c;
  vals.(r).(n) <- v;
  len.(r) <- n + 1

(* LU with partial pivoting of the m x m basis matrix B[:,j] =
   A[:, basis.(j)], right-looking, column k eliminated at step k.  The
   pivot is the first row of maximal magnitude in column k, counting
   rows by their current position — the rule of a dense elimination
   that swaps whole rows — and each active row with a nonzero in column
   k receives, for every nonzero of the pivot row, the one update
   [a_ij <- a_ij - l a_kj] that dense loop would apply.  An entry's
   updates therefore arrive in the same step order with the same
   operands, so every factor value is the dense one bit for bit; the
   entries the dense loop also visits are exact zeros, which only ever
   produce zeros, and zeros never reach a factor.  Returns Error
   `Singular when a pivot column has no entry above [pivot_tol]. *)
let factorize sc mat basis =
  let m = mat.m in
  reserve sc m;
  let a_col = sc.a_col and a_val = sc.a_val and a_len = sc.a_len in
  let m_col = sc.m_col and m_val = sc.m_val and m_len = sc.m_len in
  let c_row = sc.c_row and c_len = sc.c_len in
  let pos = sc.pos and at = sc.at and mark = sc.mark and seen = sc.seen in
  let cand = sc.cand and cand_e = sc.cand_e and nz = sc.nz and nzv = sc.nzv in
  for r = 0 to m - 1 do
    a_len.(r) <- 0;
    m_len.(r) <- 0;
    c_len.(r) <- 0;
    pos.(r) <- r;
    at.(r) <- r
  done;
  Array.iteri
    (fun j bj ->
      for p = mat.col_start.(bj) to mat.col_start.(bj + 1) - 1 do
        let v = mat.coef.(p) in
        if v <> 0. then begin
          let r = mat.row_idx.(p) in
          push_entry a_col a_val a_len r j v;
          push_int c_row c_len j r
        end
      done)
    basis;
  let udiag = Array.make m 0. in
  let rec eliminate k =
    if k >= m then true
    else begin
      (* Candidates: the unpivoted rows with an entry in column k.  The
         dense scan starts at position k and moves on only for a strictly
         larger magnitude, so the winner is the smallest position of
         maximal magnitude, position k (entry or zero) included; a NaN
         is never larger, but one at position k is never left. *)
      let ncand = ref 0 in
      let best = ref 0. and best_pos = ref k and nan_at_k = ref false in
      let col = c_row.(k) in
      for q = 0 to c_len.(k) - 1 do
        let r = col.(q) in
        let pr = pos.(r) in
        if pr >= k then begin
          let cols = a_col.(r) in
          let e = ref 0 in
          while cols.(!e) <> k do incr e done;
          cand.(!ncand) <- r;
          cand_e.(!ncand) <- !e;
          incr ncand;
          let v = a_val.(r).(!e) in
          let mag = Float.abs v in
          if pr = k && Float.is_nan v then nan_at_k := true
          else if mag > !best || (mag = !best && pr < !best_pos) then begin
            best := mag;
            best_pos := pr
          end
        end
      done;
      if !nan_at_k then best_pos := k;
      let prow = at.(!best_pos) in
      let pe = ref (-1) in
      for c = 0 to !ncand - 1 do
        if cand.(c) = prow then pe := cand_e.(c)
      done;
      let piv = if !pe < 0 then 0. else a_val.(prow).(!pe) in
      if Float.abs piv <= pivot_tol then false
      else begin
        if !best_pos <> k then begin
          let rk = at.(k) in
          at.(k) <- prow;
          at.(!best_pos) <- rk;
          pos.(prow) <- k;
          pos.(rk) <- !best_pos
        end;
        udiag.(k) <- piv;
        (* What is left of the pivot row is its U row; its nonzeros are
           the updates' operands. *)
        let pcols = a_col.(prow) and pvals = a_val.(prow) in
        let last = a_len.(prow) - 1 in
        pcols.(!pe) <- pcols.(last);
        pvals.(!pe) <- pvals.(last);
        a_len.(prow) <- last;
        let cnt = ref 0 in
        for e = 0 to last - 1 do
          let j = pcols.(e) and v = pvals.(e) in
          if v <> 0. then begin
            nz.(!cnt) <- j;
            nzv.(!cnt) <- v;
            mark.(j) <- !cnt;
            incr cnt
          end
        done;
        let cnt = !cnt in
        for c = 0 to !ncand - 1 do
          let r = cand.(c) in
          if r <> prow then begin
            let cols = a_col.(r) and vals = a_val.(r) in
            let e = cand_e.(c) and last = a_len.(r) - 1 in
            let v = vals.(e) in
            cols.(e) <- cols.(last);
            vals.(e) <- vals.(last);
            a_len.(r) <- last;
            if v <> 0. then begin
              let l = v /. piv in
              if l <> 0. then begin
                push_entry m_col m_val m_len r k l;
                sc.stamp <- sc.stamp + 1;
                let stamp = sc.stamp in
                for e = 0 to last - 1 do
                  let q = mark.(cols.(e)) in
                  if q >= 0 then begin
                    vals.(e) <- vals.(e) -. (l *. nzv.(q));
                    seen.(q) <- stamp
                  end
                done;
                for q = 0 to cnt - 1 do
                  if seen.(q) <> stamp then begin
                    let j = nz.(q) in
                    push_entry a_col a_val a_len r j (0. -. (l *. nzv.(q)));
                    push_int c_row c_len j r
                  end
                done
              end
              else
                (* A multiplier that underflows to zero leaves the entry
                   where the dense loop leaves it: in L, unscaled. *)
                push_entry m_col m_val m_len r k v
            end
          end
        done;
        for q = 0 to cnt - 1 do
          mark.(nz.(q)) <- -1
        done;
        eliminate (k + 1)
      end
    end
  in
  if not (eliminate 0) then Error `Singular
  else begin
    let cnt = sc.cnt in
    (* L by columns: walking positions in order leaves each column's
       rows ascending. *)
    Array.fill cnt 0 m 0;
    for r = 0 to m - 1 do
      for e = 0 to m_len.(r) - 1 do
        let j = m_col.(r).(e) in
        cnt.(j) <- cnt.(j) + 1
      done
    done;
    let l_idx = Array.make m [||] and l_val = Array.make m [||] in
    for j = 0 to m - 1 do
      if cnt.(j) > 0 then begin
        l_idx.(j) <- Array.make cnt.(j) 0;
        l_val.(j) <- Array.make cnt.(j) 0.;
        cnt.(j) <- 0
      end
    done;
    for i = 0 to m - 1 do
      let r = at.(i) in
      for e = 0 to m_len.(r) - 1 do
        let j = m_col.(r).(e) in
        l_idx.(j).(cnt.(j)) <- i;
        l_val.(j).(cnt.(j)) <- m_val.(r).(e);
        cnt.(j) <- cnt.(j) + 1
      done
    done;
    (* U by rows, columns ascending: the pivot rows' leftover entries are
       unordered, so they go through a column-major copy first. *)
    Array.fill cnt 0 (m + 1) 0;
    for i = 0 to m - 1 do
      let r = at.(i) in
      for e = 0 to a_len.(r) - 1 do
        if a_val.(r).(e) <> 0. then begin
          let j = a_col.(r).(e) in
          cnt.(j + 1) <- cnt.(j + 1) + 1
        end
      done
    done;
    for j = 0 to m - 1 do
      cnt.(j + 1) <- cnt.(j + 1) + cnt.(j)
    done;
    let total = cnt.(m) in
    if Array.length sc.t_row < total then begin
      sc.t_row <- Array.make (2 * total) 0;
      sc.t_val <- Array.make (2 * total) 0.
    end;
    let t_row = sc.t_row and t_val = sc.t_val in
    let u_len = cand in (* free once the elimination is over *)
    Array.fill u_len 0 m 0;
    for i = 0 to m - 1 do
      let r = at.(i) in
      for e = 0 to a_len.(r) - 1 do
        let v = a_val.(r).(e) in
        if v <> 0. then begin
          let j = a_col.(r).(e) in
          t_row.(cnt.(j)) <- i;
          t_val.(cnt.(j)) <- v;
          cnt.(j) <- cnt.(j) + 1;
          u_len.(i) <- u_len.(i) + 1
        end
      done
    done;
    (* cnt.(j) now ends column j, which starts at cnt.(j - 1). *)
    let u_idx = Array.make m [||] and u_val = Array.make m [||] in
    for i = 0 to m - 1 do
      if u_len.(i) > 0 then begin
        u_idx.(i) <- Array.make u_len.(i) 0;
        u_val.(i) <- Array.make u_len.(i) 0.;
        u_len.(i) <- 0
      end
    done;
    for j = 0 to m - 1 do
      for p = (if j = 0 then 0 else cnt.(j - 1)) to cnt.(j) - 1 do
        let i = t_row.(p) in
        u_idx.(i).(u_len.(i)) <- j;
        u_val.(i).(u_len.(i)) <- t_val.(p);
        u_len.(i) <- u_len.(i) + 1
      done
    done;
    Ok
      { fbasis = Array.copy basis; perm = Array.sub at 0 m; udiag;
        l_idx; l_val; u_idx; u_val }
  end

(* Product-form update: B_new = B_old with column [row] replaced, so
   B_new^-1 = E B_old^-1 where E is the identity with column [row]
   replaced by the eta column.  Eta [k] is row [sc.eta_row.(k)] and
   column [sc.eta_col.(k)]. *)
type t = {
  mat : mat;
  sc : scratch;
  basis : int array;
  mutable factors : factor;
  mutable n_etas : int;
  mutable refactorizations : int;
}

let basis t = t.basis
let refactorizations t = t.refactorizations

let of_factor sc mat f =
  if Array.length f.perm <> mat.m then
    invalid_arg "Basis.of_factor: row count mismatch";
  reserve sc mat.m;
  { mat; sc; basis = Array.copy f.fbasis; factors = f; n_etas = 0;
    refactorizations = 0 }

let create sc mat basis =
  match factorize sc mat basis with
  | Ok f -> Ok (of_factor sc mat f)
  | Error `Singular -> Error `Singular

let refactorize t =
  match factorize t.sc t.mat t.basis with
  | Ok f ->
    t.factors <- f;
    t.n_etas <- 0;
    t.refactorizations <- t.refactorizations + 1;
    Ok ()
  | Error `Singular -> Error `Singular

(* Solve B x = v in place:  P B = L U, so x = U^-1 L^-1 P v, then the
   eta file applied oldest to newest.  L is applied column by column:
   entry i receives its updates in ascending column order, exactly the
   terms and order of a row-by-row solve.  A column whose multiplier is
   zero only subtracts exact zeros and is skipped. *)
let ftran t v =
  let m = t.mat.m in
  let f = t.factors in
  let w = t.sc.w in
  for i = 0 to m - 1 do
    w.(i) <- v.(f.perm.(i))
  done;
  for j = 0 to m - 1 do
    let wj = w.(j) in
    if wj <> 0. then begin
      let idx = f.l_idx.(j) and vals = f.l_val.(j) in
      for p = 0 to Array.length idx - 1 do
        let i = idx.(p) in
        w.(i) <- w.(i) -. (vals.(p) *. wj)
      done
    end
  done;
  for i = m - 1 downto 0 do
    let idx = f.u_idx.(i) and vals = f.u_val.(i) in
    let acc = ref w.(i) in
    for p = 0 to Array.length idx - 1 do
      acc := !acc -. (vals.(p) *. w.(idx.(p)))
    done;
    w.(i) <- !acc /. f.udiag.(i)
  done;
  Array.blit w 0 v 0 m;
  for k = 0 to t.n_etas - 1 do
    let r = t.sc.eta_row.(k) and ecol = t.sc.eta_col.(k) in
    let vr = v.(r) in
    if vr <> 0. then begin
      for i = 0 to m - 1 do
        v.(i) <- v.(i) +. (ecol.(i) *. vr)
      done;
      v.(r) <- ecol.(r) *. vr
    end
  done

(* Solve B^T x = v in place: apply eta transposes newest to oldest, then
   U^T z = v, L^T w = z, x = P^T w.  U^T is applied row by row of U,
   with the same ordering argument as L in [ftran]. *)
let btran t v =
  let m = t.mat.m in
  for k = t.n_etas - 1 downto 0 do
    let r = t.sc.eta_row.(k) and ecol = t.sc.eta_col.(k) in
    let acc = ref 0. in
    for i = 0 to m - 1 do
      acc := !acc +. (ecol.(i) *. v.(i))
    done;
    (* ecol.(r) already holds the diagonal entry of E. *)
    v.(r) <- !acc
  done;
  let f = t.factors in
  let z = t.sc.w in
  Array.blit v 0 z 0 m;
  for j = 0 to m - 1 do
    let zj = z.(j) /. f.udiag.(j) in
    z.(j) <- zj;
    if zj <> 0. then begin
      let idx = f.u_idx.(j) and vals = f.u_val.(j) in
      for p = 0 to Array.length idx - 1 do
        let i = idx.(p) in
        z.(i) <- z.(i) -. (vals.(p) *. zj)
      done
    end
  done;
  for i = m - 1 downto 0 do
    let idx = f.l_idx.(i) and vals = f.l_val.(i) in
    let acc = ref z.(i) in
    for p = 0 to Array.length idx - 1 do
      acc := !acc -. (vals.(p) *. z.(idx.(p)))
    done;
    z.(i) <- !acc
  done;
  for i = 0 to m - 1 do
    v.(f.perm.(i)) <- z.(i)
  done

let update t ~row ~col ~d =
  let m = t.mat.m in
  let piv = d.(row) in
  if Float.abs piv <= pivot_tol then Error `Tiny_pivot
  else begin
    t.basis.(row) <- col;
    if t.n_etas >= refactor_every then
      match refactorize t with
      | Ok () -> Ok `Refactored
      | Error `Singular -> Error `Singular
    else begin
      let k = t.n_etas in
      if Array.length t.sc.eta_col.(k) < m then
        t.sc.eta_col.(k) <- Array.make m 0.;
      let ecol = t.sc.eta_col.(k) in
      for i = 0 to m - 1 do
        ecol.(i) <- -.d.(i) /. piv
      done;
      ecol.(row) <- 1. /. piv;
      t.sc.eta_row.(k) <- row;
      t.n_etas <- k + 1;
      Ok `Updated
    end
  end
