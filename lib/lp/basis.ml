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

(* Working memory of one domain's solves: the dense elimination matrix,
   the solve temporary and the eta file of the one live [t] built on
   it. *)
type scratch = {
  mutable cap : int;
  mutable dense : float array array;  (* cap x cap elimination matrix *)
  mutable nz : int array;             (* nonzero positions of a row or column *)
  mutable w : float array;            (* ftran / btran temporary *)
  eta_col : float array array;        (* eta columns, reused *)
  eta_row : int array;
}

let scratch () =
  { cap = 0; dense = [||]; nz = [||]; w = [||];
    eta_col = Array.make refactor_every [||];
    eta_row = Array.make refactor_every 0 }

let reserve sc m =
  if m > sc.cap then begin
    sc.cap <- m;
    sc.dense <- Array.make_matrix m m 0.;
    sc.nz <- Array.make m 0;
    sc.w <- Array.make m 0.
  end

let permutation f = Array.copy f.perm
let pivots f = Array.copy f.udiag

(* LU with partial pivoting of the m x m basis matrix B[:,j] =
   A[:, basis.(j)]: the first row of maximal magnitude in the pivot
   column is chosen, and the elimination only touches the pivot row's
   nonzero columns (the skipped updates subtract an exact zero).
   Returns Error `Singular when a pivot column has no entry above
   [pivot_tol]. *)
let factorize sc mat basis =
  let m = mat.m in
  reserve sc m;
  let a = sc.dense in
  for i = 0 to m - 1 do
    Array.fill a.(i) 0 m 0.
  done;
  Array.iteri
    (fun j bj ->
      for p = mat.col_start.(bj) to mat.col_start.(bj + 1) - 1 do
        a.(mat.row_idx.(p)).(j) <- mat.coef.(p)
      done)
    basis;
  let perm = Array.init m Fun.id in
  let nz = sc.nz in
  let rec eliminate k =
    if k >= m then true
    else begin
      let p = ref k in
      for i = k + 1 to m - 1 do
        if Float.abs a.(i).(k) > Float.abs a.(!p).(k) then p := i
      done;
      if Float.abs a.(!p).(k) <= pivot_tol then false
      else begin
        if !p <> k then begin
          let tmp = a.(k) in
          a.(k) <- a.(!p);
          a.(!p) <- tmp;
          let tp = perm.(k) in
          perm.(k) <- perm.(!p);
          perm.(!p) <- tp
        end;
        let row_k = a.(k) in
        let piv = row_k.(k) in
        let cnt = ref 0 in
        for j = k + 1 to m - 1 do
          if row_k.(j) <> 0. then begin
            nz.(!cnt) <- j;
            incr cnt
          end
        done;
        for i = k + 1 to m - 1 do
          let row_i = a.(i) in
          if row_i.(k) <> 0. then begin
            let l = row_i.(k) /. piv in
            if l <> 0. then begin
              row_i.(k) <- l;
              for q = 0 to !cnt - 1 do
                let j = nz.(q) in
                row_i.(j) <- row_i.(j) -. (l *. row_k.(j))
              done
            end
          end
        done;
        eliminate (k + 1)
      end
    end
  in
  if not (eliminate 0) then Error `Singular
  else begin
    let l_idx = Array.make m [||] and l_val = Array.make m [||] in
    for j = 0 to m - 1 do
      let c = ref 0 in
      for i = j + 1 to m - 1 do
        if a.(i).(j) <> 0. then begin
          nz.(!c) <- i;
          incr c
        end
      done;
      if !c > 0 then begin
        let idx = Array.sub nz 0 !c in
        l_idx.(j) <- idx;
        l_val.(j) <- Array.map (fun i -> a.(i).(j)) idx
      end
    done;
    let u_idx = Array.make m [||] and u_val = Array.make m [||] in
    for i = 0 to m - 1 do
      let row = a.(i) and c = ref 0 in
      for j = i + 1 to m - 1 do
        if row.(j) <> 0. then begin
          nz.(!c) <- j;
          incr c
        end
      done;
      if !c > 0 then begin
        let idx = Array.sub nz 0 !c in
        u_idx.(i) <- idx;
        u_val.(i) <- Array.map (fun j -> row.(j)) idx
      end
    done;
    Ok
      {
        fbasis = Array.copy basis; perm;
        udiag = Array.init m (fun i -> a.(i).(i));
        l_idx; l_val; u_idx; u_val;
      }
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
