type result =
  | Optimal of { x : float array; obj : float }
  | Infeasible
  | Unbounded
  | Iteration_limit

type stats = {
  phase1_iters : int;
  phase2_iters : int;
  rows : int;
  cols : int;
}

let pivot_tol = 1e-9
let cost_tol = 1e-7
let feas_tol = 1e-7
let degenerate_streak_limit = 60

(* How an internal (standardized) column maps back to an original
   variable. *)
type col_origin =
  | Shifted of int * float  (* x_orig = lb + x_int *)
  | Mirrored of int * float (* x_orig = ub - x_int *)
  | Split_pos of int        (* free var, positive part *)
  | Split_neg of int        (* free var, negative part *)
  | Slack

type status = At_lower | At_upper | Basic

type tableau = {
  m : int;                      (* rows *)
  n : int;                      (* columns, artificials included *)
  a : float array array;        (* m x n, updated in place by pivots *)
  rhs0 : float array;           (* original standardized rhs, kept for debug *)
  ub : float array;             (* per-column upper bound (lower is 0) *)
  origin : col_origin array;
  cost : float array;           (* phase-2 costs on internal columns *)
  n_structural : int;           (* columns before slacks/artificials *)
  first_artificial : int;       (* = n when there are none *)
  banned : bool array;          (* columns excluded from entering *)
  basis : int array;            (* m entries *)
  stat : status array;          (* n entries *)
  xb : float array;             (* m basic values *)
  z : float array;              (* n reduced costs for the current phase *)
}

(* ------------------------------------------------------------------ *)
(* Standardization                                                     *)
(* ------------------------------------------------------------------ *)

(* Build the standardized tableau: all internal variables in [0, ub],
   all rows equalities with rhs >= 0, slack columns appended, then one
   artificial column for every row whose slack cannot start basic. *)
let standardize prob =
  let nv = Lp_problem.num_vars prob in
  let rows = Lp_problem.constraints prob in
  let m = Array.length rows in
  (* Map each original variable to its internal columns. *)
  let origins = ref [] and ncols = ref 0 in
  let col_of_var = Array.make nv [] in
  for v = 0 to nv - 1 do
    let lb = Lp_problem.var_lb prob v and ub = Lp_problem.var_ub prob v in
    let fresh o =
      origins := o :: !origins;
      incr ncols;
      !ncols - 1
    in
    if lb > neg_infinity then begin
      let c = fresh (Shifted (v, lb)) in
      col_of_var.(v) <- [ (c, 1.) ]
    end
    else if ub < infinity then begin
      let c = fresh (Mirrored (v, ub)) in
      col_of_var.(v) <- [ (c, -1.) ]
    end
    else begin
      let p = fresh (Split_pos v) in
      let q = fresh (Split_neg v) in
      col_of_var.(v) <- [ (p, 1.); (q, -1.) ]
    end
  done;
  let n_structural = !ncols in
  let slack_cols = Array.make m (-1) in
  Array.iteri
    (fun i row ->
      match row.Lp_problem.cmp with
      | Lp_problem.Le | Lp_problem.Ge ->
        origins := Slack :: !origins;
        incr ncols;
        slack_cols.(i) <- !ncols - 1
      | Lp_problem.Eq -> ())
    rows;
  let n_before_art = !ncols in
  (* The adjusted rhs, normalized to be >= 0; a flipped row is negated
     below. *)
  let rhs = Array.make m 0. in
  let flipped = Array.make m false in
  Array.iteri
    (fun i row ->
      let shift = ref 0. in
      List.iter
        (fun (c, v) ->
          (* Shift / mirror constants move to the rhs. *)
          let lb = Lp_problem.var_lb prob v
          and ub = Lp_problem.var_ub prob v in
          if lb > neg_infinity then shift := !shift +. (c *. lb)
          else if ub < infinity then shift := !shift +. (c *. ub))
        row.Lp_problem.terms;
      rhs.(i) <- row.Lp_problem.rhs -. !shift;
      if rhs.(i) < 0. then begin
        rhs.(i) <- -.rhs.(i);
        flipped.(i) <- true
      end)
    rows;
  (* Decide initial basis per row: the slack if its coefficient ends up
     +1 (a [Le] row kept, a [Ge] row flipped), otherwise a fresh
     artificial. *)
  let needs_artificial =
    Array.mapi
      (fun i row ->
        match row.Lp_problem.cmp with
        | Lp_problem.Le -> flipped.(i)
        | Lp_problem.Ge -> not flipped.(i)
        | Lp_problem.Eq -> true)
      rows
  in
  let n_art = Array.fold_left (fun a b -> if b then a + 1 else a) 0
      needs_artificial in
  let n = n_before_art + n_art in
  (* The tableau rows (structural + slack, artificials after), built in
     place: the one m x n matrix is the solver's largest allocation. *)
  let a = Array.make_matrix m n 0. in
  Array.iteri
    (fun i row ->
      let ai = a.(i) in
      List.iter
        (fun (c, v) ->
          List.iter
            (fun (col, sign) -> ai.(col) <- ai.(col) +. (c *. sign))
            col_of_var.(v))
        row.Lp_problem.terms;
      (match row.Lp_problem.cmp with
      | Lp_problem.Le -> ai.(slack_cols.(i)) <- 1.
      | Lp_problem.Ge -> ai.(slack_cols.(i)) <- -1.
      | Lp_problem.Eq -> ());
      if flipped.(i) then
        for j = 0 to n_before_art - 1 do
          ai.(j) <- -.ai.(j)
        done)
    rows;
  let basis = Array.make m (-1) in
  let next_art = ref n_before_art in
  for i = 0 to m - 1 do
    if needs_artificial.(i) then begin
      a.(i).(!next_art) <- 1.;
      basis.(i) <- !next_art;
      incr next_art
    end
    else basis.(i) <- slack_cols.(i)
  done;
  (* Column upper bounds.  Structural: from the original variable after the
     shift / mirror; slacks and artificials unbounded (artificials get
     clamped to 0 after phase 1). *)
  let ub = Array.make n infinity in
  let origin = Array.make n Slack in
  List.iteri
    (fun k o -> origin.(n_before_art - 1 - k) <- o)
    !origins;
  for j = 0 to n - 1 do
    match origin.(j) with
    | Shifted (v, lb) ->
      let u = Lp_problem.var_ub prob v in
      ub.(j) <- (if u < infinity then u -. lb else infinity)
    | Mirrored (v, ub') ->
      (* x_int = ub - x in [0, ub - lb]; lb = -inf here, so unbounded. *)
      ignore ub';
      ignore v;
      ub.(j) <- infinity
    | Split_pos _ | Split_neg _ | Slack -> ub.(j) <- infinity
  done;
  (* Phase-2 costs on internal columns (minimization). *)
  let sign = match Lp_problem.sense prob with
    | Lp_problem.Minimize -> 1.
    | Lp_problem.Maximize -> -1.
  in
  let cost = Array.make n 0. in
  for v = 0 to nv - 1 do
    let c = sign *. Lp_problem.obj_coeff prob v in
    List.iter
      (fun (col, s) -> cost.(col) <- cost.(col) +. (c *. s))
      col_of_var.(v)
  done;
  let banned = Array.make n false in
  for j = 0 to n - 1 do
    if ub.(j) <= pivot_tol then banned.(j) <- true
  done;
  let stat = Array.make n At_lower in
  Array.iter (fun b -> stat.(b) <- Basic) basis;
  let xb = Array.copy rhs in
  {
    m; n; a; rhs0 = rhs; ub; origin; cost; n_structural;
    first_artificial = n_before_art; banned; basis; stat; xb;
    z = Array.make n 0.;
  }

(* ------------------------------------------------------------------ *)
(* Core pivoting                                                       *)
(* ------------------------------------------------------------------ *)

(* Recompute the reduced-cost row z_j = c_j - c_B . (B^-1 A)_j for the
   given cost vector.  Called once per phase. *)
let price t cost =
  for j = 0 to t.n - 1 do
    t.z.(j) <- cost.(j)
  done;
  for i = 0 to t.m - 1 do
    let cb = cost.(t.basis.(i)) in
    if cb <> 0. then begin
      let row = t.a.(i) in
      for j = 0 to t.n - 1 do
        t.z.(j) <- t.z.(j) -. (cb *. row.(j))
      done
    end
  done

(* Violation of dual feasibility for a nonbasic column, given its rest
   status; positive means the column is attractive. *)
let attraction t j =
  if t.banned.(j) then 0.
  else
    match t.stat.(j) with
    | At_lower -> -.t.z.(j)
    | At_upper -> t.z.(j)
    | Basic -> 0.

let choose_entering_dantzig t =
  let best = ref (-1) and best_v = ref cost_tol in
  for j = 0 to t.n - 1 do
    let v = attraction t j in
    if v > !best_v then begin
      best_v := v;
      best := j
    end
  done;
  !best

let choose_entering_bland t =
  let rec go j =
    if j >= t.n then -1
    else if attraction t j > cost_tol then j
    else go (j + 1)
  in
  go 0

type step =
  | Step_optimal
  | Step_unbounded
  | Step_done of bool (* degenerate? *)

(* One simplex iteration; [bland] selects the anti-cycling rule. *)
let iterate t ~bland =
  let j =
    if bland then choose_entering_bland t else choose_entering_dantzig t
  in
  if j < 0 then Step_optimal
  else begin
    let dir = match t.stat.(j) with At_lower -> 1. | _ -> -1. in
    (* Ratio test. *)
    let t_best = ref t.ub.(j) in        (* bound flip distance *)
    let leave = ref (-1) and leave_to_upper = ref false in
    for i = 0 to t.m - 1 do
      let d = dir *. t.a.(i).(j) in
      if d > pivot_tol then begin
        let limit = t.xb.(i) /. d in
        if limit < !t_best -. pivot_tol
           || (limit < !t_best +. pivot_tol
               && !leave >= 0
               && (bland && t.basis.(i) < t.basis.(!leave)))
        then begin
          t_best := Float.max 0. limit;
          leave := i;
          leave_to_upper := false
        end
      end
      else if d < -.pivot_tol && t.ub.(t.basis.(i)) < infinity then begin
        let limit = (t.ub.(t.basis.(i)) -. t.xb.(i)) /. -.d in
        if limit < !t_best -. pivot_tol
           || (limit < !t_best +. pivot_tol
               && !leave >= 0
               && (bland && t.basis.(i) < t.basis.(!leave)))
        then begin
          t_best := Float.max 0. limit;
          leave := i;
          leave_to_upper := true
        end
      end
    done;
    if !t_best = infinity then Step_unbounded
    else begin
      let step = !t_best in
      let degenerate = step <= pivot_tol in
      if !leave < 0 then begin
        (* Pure bound flip: no basis change. *)
        for i = 0 to t.m - 1 do
          t.xb.(i) <- t.xb.(i) -. (dir *. step *. t.a.(i).(j))
        done;
        t.stat.(j) <-
          (match t.stat.(j) with At_lower -> At_upper | _ -> At_lower);
        Step_done degenerate
      end
      else begin
        let r = !leave in
        let entering_value =
          (match t.stat.(j) with At_lower -> 0. | _ -> t.ub.(j))
          +. (dir *. step)
        in
        for i = 0 to t.m - 1 do
          t.xb.(i) <- t.xb.(i) -. (dir *. step *. t.a.(i).(j))
        done;
        let leaving = t.basis.(r) in
        t.stat.(leaving) <- (if !leave_to_upper then At_upper else At_lower);
        t.basis.(r) <- j;
        t.stat.(j) <- Basic;
        t.xb.(r) <- entering_value;
        (* Row reduction. *)
        let piv = t.a.(r).(j) in
        let row_r = t.a.(r) in
        if Float.abs (piv -. 1.) > 0. then
          for k = 0 to t.n - 1 do
            row_r.(k) <- row_r.(k) /. piv
          done;
        for i = 0 to t.m - 1 do
          if i <> r then begin
            let f = t.a.(i).(j) in
            if Float.abs f > 1e-12 then begin
              let row_i = t.a.(i) in
              for k = 0 to t.n - 1 do
                row_i.(k) <- row_i.(k) -. (f *. row_r.(k))
              done;
              row_i.(j) <- 0.
            end
          end
        done;
        let zj = t.z.(j) in
        if Float.abs zj > 1e-12 then
          for k = 0 to t.n - 1 do
            t.z.(k) <- t.z.(k) -. (zj *. row_r.(k))
          done;
        t.z.(j) <- 0.;
        Step_done degenerate
      end
    end
  end

type phase_outcome = Phase_optimal | Phase_unbounded | Phase_iters

let run_phase t ~budget =
  let iters = ref 0 and streak = ref 0 and bland = ref false in
  let outcome = ref Phase_optimal in
  let continue_ = ref true in
  while !continue_ do
    if !iters >= budget then begin
      outcome := Phase_iters;
      continue_ := false
    end
    else
      match iterate t ~bland:!bland with
      | Step_optimal ->
        outcome := Phase_optimal;
        continue_ := false
      | Step_unbounded ->
        outcome := Phase_unbounded;
        continue_ := false
      | Step_done degenerate ->
        incr iters;
        if degenerate then begin
          incr streak;
          if !streak > degenerate_streak_limit then bland := true
        end
        else begin
          streak := 0;
          bland := false
        end
  done;
  (!outcome, !iters)

(* Current value of a (possibly nonbasic) internal column. *)
let col_value t j =
  match t.stat.(j) with
  | Basic ->
    let rec find i = if t.basis.(i) = j then t.xb.(i) else find (i + 1) in
    find 0
  | At_lower -> 0.
  | At_upper -> t.ub.(j)

let extract t prob =
  let nv = Lp_problem.num_vars prob in
  let x = Array.make nv 0. in
  for j = 0 to t.n_structural - 1 do
    let v = col_value t j in
    match t.origin.(j) with
    | Shifted (k, lb) -> x.(k) <- x.(k) +. lb +. v
    | Mirrored (k, ub) -> x.(k) <- x.(k) +. ub -. v
    | Split_pos k -> x.(k) <- x.(k) +. v
    | Split_neg k -> x.(k) <- x.(k) -. v
    | Slack -> ()
  done;
  x

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let solve_with_stats ?max_iters prob =
  let t = standardize prob in
  let budget =
    match max_iters with
    | Some b -> b
    | None -> (50 * (t.m + t.n)) + 2000
  in
  let mk_stats p1 p2 =
    { phase1_iters = p1; phase2_iters = p2; rows = t.m; cols = t.n }
  in
  (* Phase 1: minimize the sum of artificials, if any are basic. *)
  let p1_iters = ref 0 in
  let phase1_needed = t.first_artificial < t.n in
  let phase1_ok =
    if not phase1_needed then true
    else begin
      let c1 = Array.make t.n 0. in
      for j = t.first_artificial to t.n - 1 do
        c1.(j) <- 1.
      done;
      price t c1;
      let outcome, it = run_phase t ~budget in
      p1_iters := it;
      match outcome with
      | Phase_unbounded ->
        (* Phase-1 objective is bounded below by 0; cannot happen with
           exact arithmetic.  Treat as numerical failure -> infeasible. *)
        false
      | Phase_iters -> false
      | Phase_optimal ->
        let infeas = ref 0. in
        for i = 0 to t.m - 1 do
          if t.basis.(i) >= t.first_artificial then
            infeas := !infeas +. t.xb.(i)
        done;
        for j = t.first_artificial to t.n - 1 do
          if t.stat.(j) = At_upper then infeas := !infeas +. t.ub.(j)
        done;
        !infeas <= feas_tol *. Float.max 1. (Array.fold_left ( +. ) 0. t.rhs0)
    end
  in
  if phase1_needed && not phase1_ok then (Infeasible, mk_stats !p1_iters 0)
  else begin
    (* Freeze artificials at 0 and never let them move again. *)
    for j = t.first_artificial to t.n - 1 do
      t.ub.(j) <- 0.;
      t.banned.(j) <- true
    done;
    price t t.cost;
    let outcome, p2_iters = run_phase t ~budget:(budget - !p1_iters) in
    let stats = mk_stats !p1_iters p2_iters in
    match outcome with
    | Phase_unbounded -> (Unbounded, stats)
    | Phase_iters -> (Iteration_limit, stats)
    | Phase_optimal ->
      let x = extract t prob in
      (Optimal { x; obj = Lp_problem.objective_value prob x }, stats)
  end

let solve ?max_iters prob = fst (solve_with_stats ?max_iters prob)
