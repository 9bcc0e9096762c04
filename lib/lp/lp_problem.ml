type var = int
type sense = Minimize | Maximize
type cmp = Le | Ge | Eq
type term = float * var

type constr = {
  cname : string;
  terms : term list;
  cmp : cmp;
  rhs : float;
}

(* The rows [propagate_bounds] sweeps, flattened: row [r] (the problem
   rows, then the [~extra] rows) owns the directions [r_dir.(r) ..
   r_dir.(r + 1) - 1], one for a [Le] or [Ge] row and two for an [Eq]
   row, each a [sum coef x <= rhs] over the entries [d_start.(d) ..
   d_start.(d + 1) - 1], with [Ge] and the second [Eq] direction
   negated.  Built from the row records in [key] and rebuilt when a call
   sees other records, as the revised simplex's workspace is.  [touch]
   marks the variables a call has recorded for undo, by call stamp.
   Variable [v] appears in the rows [v_row.(v_start.(v) .. v_start.(v +
   1) - 1)]; [dirty.(r)] is false only while row [r]'s last evaluation
   tightened nothing and none of its variables' bounds has been written
   since, under the [integral] predicate that evaluation ran with. *)
type layout = {
  key : constr array;
  r_dir : int array;
  d_start : int array;
  d_rhs : float array;
  e_var : int array;
  e_coef : float array;
  touch : int array;
  mutable stamp : int;
  v_start : int array;
  v_row : int array;
  dirty : bool array;
  mutable integral : var -> bool;
}

let nobody _ = false

let no_layout () =
  { key = [||]; r_dir = [| 0 |]; d_start = [| 0 |]; d_rhs = [||];
    e_var = [||]; e_coef = [||]; touch = [||]; stamp = 0; v_start = [| 0 |];
    v_row = [||]; dirty = [||]; integral = nobody }

(* A bound of [v] was written: every row holding [v] must be evaluated
   again.  Variables the layout does not know yet force a rebuild
   anyway. *)
let mark_rows l v =
  if v < Array.length l.v_start - 1 then
    for p = l.v_start.(v) to l.v_start.(v + 1) - 1 do
      l.dirty.(l.v_row.(p)) <- true
    done
[@@inline]

(* Bounds and costs live in float arrays, so writing one never boxes. *)
type t = {
  pname : string;
  mutable names : string array;
  mutable lb : float array;
  mutable ub : float array;
  mutable obj : float array;
  mutable nvars : int;
  mutable rows : constr array;
  mutable nrows : int;
  mutable psense : sense;
  mutable layout : layout;
}

let create ?(name = "lp") () =
  { pname = name; names = [||]; lb = [||]; ub = [||]; obj = [||];
    nvars = 0; rows = [||]; nrows = 0; psense = Minimize;
    layout = no_layout () }

let name t = t.pname

(* Rows are immutable records, so sharing them is safe; the arrays are
   written in place and must be duplicated, and the propagation layout's
   marks belong to one problem. *)
let copy t =
  {
    t with
    names = Array.copy t.names;
    lb = Array.copy t.lb;
    ub = Array.copy t.ub;
    obj = Array.copy t.obj;
    rows = Array.copy t.rows;
    layout = no_layout ();
  }

let grow_vars t =
  let cap = Array.length t.lb in
  if t.nvars >= cap then begin
    let size = Int.max 8 (2 * cap) in
    let grow a x =
      let bigger = Array.make size x in
      Array.blit a 0 bigger 0 t.nvars;
      bigger
    in
    t.names <- grow t.names "";
    t.lb <- grow t.lb 0.;
    t.ub <- grow t.ub 0.;
    t.obj <- grow t.obj 0.
  end

let grow_rows t =
  let cap = Array.length t.rows in
  if t.nrows >= cap then begin
    let bigger =
      Array.make (Int.max 8 (2 * cap))
        { cname = ""; terms = []; cmp = Le; rhs = 0. }
    in
    Array.blit t.rows 0 bigger 0 t.nrows;
    t.rows <- bigger
  end

let add_var t ?(lb = 0.) ?(ub = infinity) ?(obj = 0.) vname =
  if ub < lb then
    invalid_arg
      (Printf.sprintf "Lp_problem.add_var %s: ub (%g) < lb (%g)" vname ub lb);
  grow_vars t;
  let v = t.nvars in
  t.names.(v) <- vname;
  t.lb.(v) <- lb;
  t.ub.(v) <- ub;
  t.obj.(v) <- obj;
  t.nvars <- v + 1;
  t.nvars - 1

let check_var t v fn =
  if v < 0 || v >= t.nvars then
    invalid_arg (Printf.sprintf "Lp_problem.%s: unknown variable %d" fn v)

(* Sum duplicate variable mentions so downstream consumers see each column
   at most once per row. *)
let collapse_terms terms =
  let tbl = Hashtbl.create (List.length terms) in
  let order = ref [] in
  List.iter
    (fun (c, v) ->
      match Hashtbl.find_opt tbl v with
      | Some acc -> Hashtbl.replace tbl v (acc +. c)
      | None ->
        Hashtbl.add tbl v c;
        order := v :: !order)
    terms;
  List.rev_map (fun v -> (Hashtbl.find tbl v, v)) !order

let add_constr t ?name terms cmp rhs =
  List.iter (fun (_, v) -> check_var t v "add_constr") terms;
  grow_rows t;
  let cname =
    match name with Some n -> n | None -> Printf.sprintf "c%d" t.nrows
  in
  t.rows.(t.nrows) <- { cname; terms = collapse_terms terms; cmp; rhs };
  t.nrows <- t.nrows + 1

let check_row t i fn =
  if i < 0 || i >= t.nrows then
    invalid_arg (Printf.sprintf "Lp_problem.%s: unknown row %d" fn i)

let constr_at t i =
  check_row t i "constr_at";
  t.rows.(i)

let update_constr t i terms cmp rhs =
  check_row t i "update_constr";
  List.iter (fun (_, v) -> check_var t v "update_constr") terms;
  t.rows.(i) <- { (t.rows.(i)) with terms = collapse_terms terms; cmp; rhs }

let truncate_constrs t n =
  if n < 0 || n > t.nrows then
    invalid_arg (Printf.sprintf "Lp_problem.truncate_constrs: bad count %d" n);
  t.nrows <- n

let remove_constrs t idxs =
  match idxs with
  | [] -> ()
  | _ ->
    let keep = Array.make t.nrows true in
    List.iter
      (fun i ->
        check_row t i "remove_constrs";
        keep.(i) <- false)
      idxs;
    let j = ref 0 in
    for i = 0 to t.nrows - 1 do
      if keep.(i) then begin
        t.rows.(!j) <- t.rows.(i);
        incr j
      end
    done;
    t.nrows <- !j

let set_obj_coeff t v c =
  check_var t v "set_obj_coeff";
  t.obj.(v) <- c

let set_sense t s = t.psense <- s

let set_bounds t v ~lb ~ub =
  check_var t v "set_bounds";
  if ub < lb then
    invalid_arg
      (Printf.sprintf "Lp_problem.set_bounds %d: ub (%g) < lb (%g)" v ub lb);
  t.lb.(v) <- lb;
  t.ub.(v) <- ub;
  mark_rows t.layout v

let tighten_bounds t v ~lb ~ub =
  check_var t v "tighten_bounds";
  let nlb = Float.max t.lb.(v) lb and nub = Float.min t.ub.(v) ub in
  if nub < nlb then false
  else begin
    t.lb.(v) <- nlb;
    t.ub.(v) <- nub;
    mark_rows t.layout v;
    true
  end

let layout_current l t extra =
  let nr = t.nrows in
  Array.length l.key = nr + Array.length extra
  && Array.length l.touch >= t.nvars
  &&
  let same = ref true and i = ref 0 in
  while !same && !i < Array.length l.key do
    same :=
      l.key.(!i) == (if !i < nr then t.rows.(!i) else extra.(!i - nr));
    incr i
  done;
  !same

let build_layout t extra =
  let key = Array.append (Array.sub t.rows 0 t.nrows) extra in
  let dirs row = match row.cmp with Eq -> 2 | Le | Ge -> 1 in
  let nd = Array.fold_left (fun a row -> a + dirs row) 0 key in
  let ne =
    Array.fold_left (fun a row -> a + (dirs row * List.length row.terms)) 0 key
  in
  let r_dir = Array.make (Array.length key + 1) 0 in
  let d_start = Array.make (nd + 1) 0 and d_rhs = Array.make nd 0. in
  let e_var = Array.make ne 0 and e_coef = Array.make ne 0. in
  let d = ref 0 and e = ref 0 in
  let direction sign row =
    d_rhs.(!d) <- (if sign then row.rhs else -.row.rhs);
    List.iter
      (fun (a, v) ->
        e_var.(!e) <- v;
        e_coef.(!e) <- (if sign then a else -.a);
        incr e)
      row.terms;
    incr d;
    d_start.(!d) <- !e
  in
  Array.iteri
    (fun r row ->
      (match row.cmp with
      | Le -> direction true row
      | Ge -> direction false row
      | Eq ->
        direction true row;
        direction false row);
      r_dir.(r + 1) <- !d)
    key;
  let v_start = Array.make (t.nvars + 1) 0 in
  Array.iter
    (fun row ->
      List.iter
        (fun (_, v) -> v_start.(v + 1) <- v_start.(v + 1) + 1)
        row.terms)
    key;
  for v = 0 to t.nvars - 1 do
    v_start.(v + 1) <- v_start.(v + 1) + v_start.(v)
  done;
  let v_row = Array.make v_start.(t.nvars) 0 in
  let next = Array.sub v_start 0 t.nvars in
  Array.iteri
    (fun r row ->
      List.iter
        (fun (_, v) ->
          v_row.(next.(v)) <- r;
          next.(v) <- next.(v) + 1)
        row.terms)
    key;
  { key; r_dir; d_start; d_rhs; e_var; e_coef;
    touch = Array.make t.nvars 0; stamp = 0; v_start; v_row;
    dirty = Array.make (Array.length key) true; integral = nobody }

(* Row-driven interval propagation (feasibility-based bound tightening,
   the classic MIP presolve reduction).  For a row [sum a_i x_i <= b],
   every variable's contribution is bounded below by the other terms'
   interval minima, which caps it from above:

     a_k x_k <= b - min(sum_{i<>k} a_i x_i).

   [Ge] rows propagate through their negation and [Eq] rows through
   both.  Sweeps run in row order until a fixpoint or [max_sweeps] —
   deterministic, which the parallel branch-and-bound's replay relies
   on.  [integral v] lets the caller snap tightened bounds of integer
   variables to the enclosed integer range — on 0-1 variables that
   turns interval reasoning into implication propagation (a binary
   whose lower bound rises above 0 is fixed to 1), which is where most
   of the search-tree pruning comes from.  The sweep runs over the
   flat layout with the bounds in place and no closure in its loops, so
   a call allocates only its undo list. *)
let propagate_bounds ?(max_sweeps = 16) ?(integral = nobody) ?(extra = [||])
    t =
  if not (layout_current t.layout t extra) then
    t.layout <- build_layout t extra;
  let l = t.layout in
  (* A row is clean only under the predicate it was evaluated with. *)
  if l.integral != integral then begin
    Array.fill l.dirty 0 (Array.length l.dirty) true;
    l.integral <- integral
  end;
  let r_dir = l.r_dir and d_start = l.d_start and d_rhs = l.d_rhs in
  let e_var = l.e_var and e_coef = l.e_coef and touch = l.touch in
  let dirty = l.dirty in
  let lb = t.lb and ub = t.ub in
  l.stamp <- l.stamp + 1;
  let stamp = l.stamp in
  (* First-touch undo record per variable, so callers can restore. *)
  let changed = ref [] in
  (* Improvements below this are noise: applying them would churn the
     fixpoint loop without helping the LP. *)
  let min_gain = 1e-7 in
  let infeasible = ref false and progress = ref true and sweeps = ref 0 in
  let nrows = Array.length r_dir - 1 in
  while !progress && (not !infeasible) && !sweeps < max_sweeps do
    progress := false;
    incr sweeps;
    (* [extra] rows join the sweep after the problem's but are not part
       of the problem: the MILP layer passes its lazy cut pool here, so
       propagation sees the full strengthened formulation while the LP
       stays small. *)
    let r = ref 0 in
    while (not !infeasible) && !r < nrows do
      (* A clean row would tighten nothing again: skipping it changes
         no bound, no sweep count and no undo order. *)
      if dirty.(!r) then begin
        dirty.(!r) <- false;
        for d = r_dir.(!r) to r_dir.(!r + 1) - 1 do
          let first = d_start.(d) and last = d_start.(d + 1) - 1 in
          let b = d_rhs.(d) in
          (* Interval minimum of the direction, counting the infinite
             contributions so a single unbounded term still lets the
             others propagate (inf - inf has no meaning; counting does). *)
          let finite_sum = ref 0. and n_inf = ref 0 in
          for e = first to last do
            let a = e_coef.(e) and v = e_var.(e) in
            let m = if a > 0. then a *. lb.(v) else a *. ub.(v) in
            if Float.is_finite m then finite_sum := !finite_sum +. m
            else incr n_inf
          done;
          for e = first to last do
            let a = e_coef.(e) in
            if a <> 0. then begin
              let v = e_var.(e) in
              let own = if a > 0. then a *. lb.(v) else a *. ub.(v) in
              if !n_inf = 0 || (!n_inf = 1 && not (Float.is_finite own))
              then begin
                let rest =
                  if !n_inf = 0 then !finite_sum -. own else !finite_sum
                in
                let limit = (b -. rest) /. a in
                if a > 0. then begin
                  let nub =
                    if integral v then Float.round (Float.floor (limit +. 1e-6))
                    else limit
                  in
                  if nub < ub.(v) -. min_gain then begin
                    if touch.(v) <> stamp then begin
                      touch.(v) <- stamp;
                      changed := (v, lb.(v), ub.(v)) :: !changed
                    end;
                    ub.(v) <- nub;
                    mark_rows l v;
                    progress := true;
                    if lb.(v) > nub +. 1e-6 then infeasible := true
                  end
                end
                else begin
                  let nlb =
                    if integral v then Float.round (Float.ceil (limit -. 1e-6))
                    else limit
                  in
                  if nlb > lb.(v) +. min_gain then begin
                    if touch.(v) <> stamp then begin
                      touch.(v) <- stamp;
                      changed := (v, lb.(v), ub.(v)) :: !changed
                    end;
                    lb.(v) <- nlb;
                    mark_rows l v;
                    progress := true;
                    if nlb > ub.(v) +. 1e-6 then infeasible := true
                  end
                end
              end
            end
          done
        done
      end;
      incr r
    done
  done;
  if !infeasible then `Infeasible !changed else `Ok !changed

(* Interval of the objective over the current bound box — a valid lower
   bound on any feasible point's objective, used by the branch-and-bound
   to prune propagated nodes without an LP solve. *)
let objective_interval t =
  let lo = ref 0. and hi = ref 0. in
  for v = 0 to t.nvars - 1 do
    let c = t.obj.(v) in
    if c > 0. then begin
      lo := !lo +. (c *. t.lb.(v));
      hi := !hi +. (c *. t.ub.(v))
    end
    else if c < 0. then begin
      lo := !lo +. (c *. t.ub.(v));
      hi := !hi +. (c *. t.lb.(v))
    end
  done;
  (!lo, !hi)

let num_vars t = t.nvars
let num_constrs t = t.nrows

let var_name t v = check_var t v "var_name"; t.names.(v)
let var_lb t v = check_var t v "var_lb"; t.lb.(v)
let var_ub t v = check_var t v "var_ub"; t.ub.(v)
let obj_coeff t v = check_var t v "obj_coeff"; t.obj.(v)
let sense t = t.psense
let constraints t = Array.sub t.rows 0 t.nrows

let objective_value t x =
  let acc = ref 0. in
  for v = 0 to t.nvars - 1 do
    acc := !acc +. (t.obj.(v) *. x.(v))
  done;
  !acc

let constraint_violation t x =
  let worst = ref 0. in
  let note v = if v > !worst then worst := v in
  for v = 0 to t.nvars - 1 do
    note (t.lb.(v) -. x.(v));
    note (x.(v) -. t.ub.(v))
  done;
  for i = 0 to t.nrows - 1 do
    let row = t.rows.(i) in
    let lhs = List.fold_left (fun a (c, v) -> a +. (c *. x.(v))) 0. row.terms in
    match row.cmp with
    | Le -> note (lhs -. row.rhs)
    | Ge -> note (row.rhs -. lhs)
    | Eq -> note (Float.abs (lhs -. row.rhs))
  done;
  !worst
