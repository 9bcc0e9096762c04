(* Bounded-variable revised simplex over a factorized basis (Basis).

   Differences from the dense tableau solver (Simplex):
   - variable bounds are first class: no shift / mirror / split columns,
     the internal column space is exactly [structural + one logical per
     row], so a basis snapshot is meaningful across bound changes;
   - the basis inverse is an LU factorization plus a product-form eta
     file, refactorized periodically (Basis.refactor_every);
   - a dual simplex phase re-solves a problem whose bounds changed while
     the parent basis stays dual feasible — the branch-and-bound hot
     path. *)

module Fault = Fp_util.Fault

(* Fault sites (see Fp_util.Fault and docs/robustness.md): a stalled
   solve (forced Iteration_limit, exercising the branch-and-bound's
   parent-bound retreat) and a singular LU on the warm path (exercising
   the documented cold-solve fallback).  The singular site sits only on
   the warm path: a forced singularity on the cold path would turn into
   a spurious Infeasible answer, which no recovery could make honest. *)
let site_iteration_limit = Fault.register "revised.iteration_limit"
let site_singular_lu = Fault.register "basis.singular_lu"

type vstat = VBasic | VLower | VUpper | VFree

type snapshot = {
  sm : int;
  sn : int;
  sbasis : int array;
  sstat : vstat array;
}

type result =
  | Optimal of { x : float array; obj : float; basis : snapshot }
  | Infeasible
  | Unbounded
  | Iteration_limit

type stats = {
  primal_pivots : int;
  dual_pivots : int;
  refactorizations : int;
  warm : bool;
}

let feas_tol = 1e-7
let dual_tol = 1e-7
let warm_dual_tol = 1e-6
let ratio_tol = 1e-9
let degenerate_streak_limit = 60

(* ------------------------------------------------------------------ *)
(* Standardization and the workspace                                   *)
(* ------------------------------------------------------------------ *)

(* Structural columns first, then one logical column per row with
   bounds encoding the row sense:  Le -> [0, +inf), Ge -> (-inf, 0],
   Eq -> [0, 0].  Rows become  A x + s = b. *)
type std = {
  m : int;
  n : int;
  nstruct : int;
  mat : Basis.mat;
  lo : float array;
  up : float array;
  cost : float array;  (* minimization costs *)
  b : float array;
}

(* What a solve needs besides the problem, kept from one solve to the
   next: the standardized problem (re-built only when the problem's row
   records are no longer the ones it was built from), the LU scratch,
   and the vectors the simplex phases work in.  [gen] counts
   re-standardizations, so a factor can tell which matrix it belongs
   to. *)
type workspace = {
  sc : Basis.scratch;
  mutable rows : Lp_problem.constr array;
  mutable std : std;
  mutable gen : int;
  mutable stat : vstat array;  (* length n *)
  mutable xb : float array;    (* length m, basic values by row position *)
  mutable y : float array;     (* length m, duals *)
  mutable rho : float array;   (* length m, dual simplex pivot row *)
  mutable d : float array;     (* length m, entering column *)
  mutable rhs : float array;   (* length m, compute_xb temporary *)
}

let standardize rows ~nstruct =
  let m = Array.length rows in
  let n = nstruct + m in
  let count = Array.make (n + 1) 0 in
  Array.iter
    (fun row ->
      List.iter
        (fun (c, v) -> if c <> 0. then count.(v + 1) <- count.(v + 1) + 1)
        row.Lp_problem.terms)
    rows;
  for i = 0 to m - 1 do
    count.(nstruct + i + 1) <- 1
  done;
  for j = 0 to n - 1 do
    count.(j + 1) <- count.(j + 1) + count.(j)
  done;
  let col_start = count in
  let nnz = col_start.(n) in
  let row_idx = Array.make nnz 0 and coef = Array.make nnz 0. in
  let next = Array.sub col_start 0 n in
  let put j i c =
    let p = next.(j) in
    row_idx.(p) <- i;
    coef.(p) <- c;
    next.(j) <- p + 1
  in
  Array.iteri
    (fun i row ->
      List.iter (fun (c, v) -> if c <> 0. then put v i c) row.Lp_problem.terms)
    rows;
  let lo = Array.make n 0. and up = Array.make n 0. in
  let cost = Array.make n 0. and b = Array.make m 0. in
  Array.iteri
    (fun i row ->
      let j = nstruct + i in
      put j i 1.;
      b.(i) <- row.Lp_problem.rhs;
      match row.Lp_problem.cmp with
      | Lp_problem.Le ->
        lo.(j) <- 0.;
        up.(j) <- infinity
      | Lp_problem.Ge ->
        lo.(j) <- neg_infinity;
        up.(j) <- 0.
      | Lp_problem.Eq ->
        lo.(j) <- 0.;
        up.(j) <- 0.)
    rows;
  { m; n; nstruct; mat = { Basis.m; col_start; row_idx; coef }; lo; up; cost;
    b }

let workspace () =
  {
    sc = Basis.scratch ();
    rows = [||];
    (* No problem has -1 variables: the first sync standardizes. *)
    std =
      { m = 0; n = 0; nstruct = -1;
        mat = { Basis.m = 0; col_start = [| 0 |]; row_idx = [||]; coef = [||] };
        lo = [||]; up = [||]; cost = [||]; b = [||] };
    gen = 0;
    stat = [||]; xb = [||]; y = [||]; rho = [||]; d = [||]; rhs = [||];
  }

let rows_unchanged (ws : workspace) prob =
  let m = Array.length ws.rows in
  Lp_problem.num_vars prob = ws.std.nstruct
  && Lp_problem.num_constrs prob = m
  &&
  let same = ref true and i = ref 0 in
  while !same && !i < m do
    same := Lp_problem.constr_at prob !i == ws.rows.(!i);
    incr i
  done;
  !same

(* Bring the workspace to [prob]: re-standardize when the rows changed,
   then copy the structural bounds and costs, which may differ from
   solve to solve. *)
let sync (ws : workspace) prob =
  if not (rows_unchanged ws prob) then begin
    let nstruct = Lp_problem.num_vars prob in
    let rows =
      Array.init (Lp_problem.num_constrs prob) (Lp_problem.constr_at prob)
    in
    let std = standardize rows ~nstruct in
    ws.rows <- rows;
    ws.std <- std;
    ws.gen <- ws.gen + 1;
    ws.stat <- Array.make std.n VLower;
    ws.xb <- Array.make std.m 0.;
    ws.y <- Array.make std.m 0.;
    ws.rho <- Array.make std.m 0.;
    ws.d <- Array.make std.m 0.;
    ws.rhs <- Array.make std.m 0.
  end;
  let std = ws.std in
  let sign =
    match Lp_problem.sense prob with
    | Lp_problem.Minimize -> 1.
    | Lp_problem.Maximize -> -1.
  in
  for v = 0 to std.nstruct - 1 do
    std.lo.(v) <- Lp_problem.var_lb prob v;
    std.up.(v) <- Lp_problem.var_ub prob v;
    std.cost.(v) <- sign *. Lp_problem.obj_coeff prob v
  done;
  std

(* ------------------------------------------------------------------ *)
(* Solver state                                                        *)
(* ------------------------------------------------------------------ *)

(* One solve: the basis being pivoted plus the workspace's vectors. *)
type state = {
  std : std;
  bas : Basis.t;
  stat : vstat array;
  xb : float array;
  y : float array;
  rho : float array;
  d : float array;
  rhs : float array;
}

(* [nb_value] and [col_dot] are inlined at every call, so the floats
   they return stay unboxed in the pivot loops. *)
let nb_value st ~lo ~up j =
  match st.stat.(j) with
  | VLower -> lo.(j)
  | VUpper -> up.(j)
  | VFree -> 0.
  | VBasic -> assert false
[@@inline]

(* Basic values from scratch: x_B = B^-1 (b - N x_N). *)
let compute_xb st ~lo ~up =
  let std = st.std in
  let { Basis.col_start; row_idx; coef; _ } = std.mat in
  let rhs = st.rhs in
  Array.blit std.b 0 rhs 0 std.m;
  for j = 0 to std.n - 1 do
    if st.stat.(j) <> VBasic then begin
      let v = nb_value st ~lo ~up j in
      if v <> 0. then
        for p = col_start.(j) to col_start.(j + 1) - 1 do
          let i = row_idx.(p) in
          rhs.(i) <- rhs.(i) -. (coef.(p) *. v)
        done
    end
  done;
  Basis.ftran st.bas rhs;
  Array.blit rhs 0 st.xb 0 std.m

let compute_duals st ~cost =
  let basis = Basis.basis st.bas in
  for i = 0 to st.std.m - 1 do
    st.y.(i) <- cost.(basis.(i))
  done;
  Basis.btran st.bas st.y

(* Column [j] of the standardized matrix dotted with [y], summed in the
   column's entry order. *)
let col_dot (mat : Basis.mat) y j =
  let acc = ref 0. in
  for p = mat.Basis.col_start.(j) to mat.Basis.col_start.(j + 1) - 1 do
    acc := !acc +. (mat.Basis.coef.(p) *. y.(mat.Basis.row_idx.(p)))
  done;
  !acc
[@@inline]

(* d <- column [j] of the standardized matrix, dense. *)
let load_col (mat : Basis.mat) d j =
  Array.fill d 0 mat.Basis.m 0.;
  for p = mat.Basis.col_start.(j) to mat.Basis.col_start.(j + 1) - 1 do
    d.(mat.Basis.row_idx.(p)) <- mat.Basis.coef.(p)
  done

let primal_infeasibility st ~lo ~up =
  let basis = Basis.basis st.bas in
  let worst = ref 0. in
  for i = 0 to st.std.m - 1 do
    let k = basis.(i) in
    let v = st.xb.(i) in
    if lo.(k) -. v > !worst then worst := lo.(k) -. v;
    if v -. up.(k) > !worst then worst := v -. up.(k)
  done;
  !worst

(* ------------------------------------------------------------------ *)
(* Primal simplex                                                      *)
(* ------------------------------------------------------------------ *)

type phase = P_optimal | P_unbounded | P_iters | P_singular

(* Bounded primal simplex on the given cost vector and bounds (phase 1
   passes relaxed copies).  Assumes st.xb is NOT yet computed; leaves
   st.xb consistent on exit.  Dantzig pricing, Bland's rule after a
   degenerate streak. *)
let primal st ~cost ~lo ~up ~budget =
  let std = st.std in
  let mat = std.mat in
  let d = st.d in
  let iters = ref 0 and streak = ref 0 and bland = ref false in
  let outcome = ref P_optimal in
  let running = ref true in
  compute_xb st ~lo ~up;
  while !running do
    if !iters >= budget then begin
      outcome := P_iters;
      running := false
    end
    else begin
      compute_duals st ~cost;
      let best = ref (-1) and best_v = ref dual_tol and best_z = ref 0. in
      (try
         for j = 0 to std.n - 1 do
           if st.stat.(j) <> VBasic && up.(j) -. lo.(j) > ratio_tol then begin
             let z = cost.(j) -. col_dot mat st.y j in
             let a =
               match st.stat.(j) with
               | VLower -> -.z
               | VUpper -> z
               | VFree -> Float.abs z
               | VBasic -> 0.
             in
             if a > !best_v then begin
               best := j;
               best_v := a;
               best_z := z;
               if !bland then raise Exit
             end
           end
         done
       with Exit -> ());
      if !best < 0 then begin
        outcome := P_optimal;
        running := false
      end
      else begin
        let j = !best in
        let dir =
          match st.stat.(j) with
          | VLower -> 1.
          | VUpper -> -1.
          | VFree -> if !best_z <= 0. then 1. else -1.
          | VBasic -> assert false
        in
        load_col mat d j;
        Basis.ftran st.bas d;
        let basis = Basis.basis st.bas in
        let t_best = ref (up.(j) -. lo.(j)) in
        let leave = ref (-1) and leave_up = ref false in
        let consider i limit at_up =
          let better =
            limit < !t_best -. ratio_tol
            || (limit < !t_best +. ratio_tol
                && !leave >= 0
                &&
                if !bland then basis.(i) < basis.(!leave)
                else Float.abs d.(i) > Float.abs d.(!leave))
          in
          if better then begin
            t_best := Float.max 0. limit;
            leave := i;
            leave_up := at_up
          end
        in
        for i = 0 to std.m - 1 do
          let k = basis.(i) in
          let delta = dir *. d.(i) in
          if delta > ratio_tol then begin
            if lo.(k) > neg_infinity then
              consider i ((st.xb.(i) -. lo.(k)) /. delta) false
          end
          else if delta < -.ratio_tol then
            if up.(k) < infinity then
              consider i ((up.(k) -. st.xb.(i)) /. -.delta) true
        done;
        if !t_best = infinity then begin
          outcome := P_unbounded;
          running := false
        end
        else begin
          let step = Float.max 0. !t_best in
          let degen = step <= ratio_tol in
          (if !leave < 0 then begin
             (* Pure bound flip: no basis change. *)
             for i = 0 to std.m - 1 do
               st.xb.(i) <- st.xb.(i) -. (dir *. step *. d.(i))
             done;
             st.stat.(j) <-
               (match st.stat.(j) with VLower -> VUpper | _ -> VLower);
             incr iters
           end
           else begin
             let r = !leave in
             let k = basis.(r) in
             let enter_val = nb_value st ~lo ~up j +. (dir *. step) in
             match Basis.update st.bas ~row:r ~col:j ~d with
             | Error `Tiny_pivot | Error `Singular ->
               outcome := P_singular;
               running := false
             | Ok refreshed ->
               for i = 0 to std.m - 1 do
                 st.xb.(i) <- st.xb.(i) -. (dir *. step *. d.(i))
               done;
               st.xb.(r) <- enter_val;
               st.stat.(k) <- (if !leave_up then VUpper else VLower);
               st.stat.(j) <- VBasic;
               if refreshed = `Refactored then compute_xb st ~lo ~up;
               incr iters
           end);
          if !running then
            if degen then begin
              incr streak;
              if !streak > degenerate_streak_limit then bland := true
            end
            else begin
              streak := 0;
              bland := false
            end
        end
      end
    end
  done;
  (!outcome, !iters)

(* ------------------------------------------------------------------ *)
(* Primal phase 1 (composite objective)                                *)
(* ------------------------------------------------------------------ *)

(* Minimize the total bound violation of the basic variables with the
   classic composite objective: every variable keeps its true bounds,
   the phase-1 cost of a basic variable is -1 below its lower bound, +1
   above its upper bound, 0 inside, recomputed each iteration; the ratio
   test stops at the nearest bound breakpoint, which is where a violated
   variable re-enters its interval.  Nonbasic variables rest at true
   bounds throughout, so feasibility, once reached, is genuine. *)
let phase1 st ~budget =
  let std = st.std in
  let mat = std.mat in
  let lo = std.lo and up = std.up in
  let d = st.d in
  let iters = ref 0 and streak = ref 0 and bland = ref false in
  let outcome = ref `Feasible in
  let running = ref true in
  compute_xb st ~lo ~up;
  while !running do
    if !iters >= budget then begin
      outcome := `Iters;
      running := false
    end
    else begin
      let basis = Basis.basis st.bas in
      (* Composite costs live only on the basics, so c_B is built
         directly into the dual scratch vector. *)
      let nviol = ref 0 in
      for i = 0 to std.m - 1 do
        let k = basis.(i) in
        st.y.(i) <-
          (if st.xb.(i) < lo.(k) -. feas_tol then begin
             incr nviol;
             -1.
           end
           else if st.xb.(i) > up.(k) +. feas_tol then begin
             incr nviol;
             1.
           end
           else 0.)
      done;
      if !nviol = 0 then begin
        outcome := `Feasible;
        running := false
      end
      else begin
        Basis.btran st.bas st.y;
        let best = ref (-1) and best_v = ref dual_tol and best_z = ref 0. in
        (try
           for j = 0 to std.n - 1 do
             if st.stat.(j) <> VBasic && up.(j) -. lo.(j) > ratio_tol then begin
               let z = -.col_dot mat st.y j in
               let a =
                 match st.stat.(j) with
                 | VLower -> -.z
                 | VUpper -> z
                 | VFree -> Float.abs z
                 | VBasic -> 0.
               in
               if a > !best_v then begin
                 best := j;
                 best_v := a;
                 best_z := z;
                 if !bland then raise Exit
               end
             end
           done
         with Exit -> ());
        if !best < 0 then begin
          outcome := `Infeasible;
          running := false
        end
        else begin
          let j = !best in
          let dir =
            match st.stat.(j) with
            | VLower -> 1.
            | VUpper -> -1.
            | VFree -> if !best_z <= 0. then 1. else -1.
            | VBasic -> assert false
          in
          load_col mat d j;
          Basis.ftran st.bas d;
          let t_best = ref (up.(j) -. lo.(j)) in
          let leave = ref (-1) and leave_up = ref false in
          let consider i limit at_up =
            let better =
              limit < !t_best -. ratio_tol
              || (limit < !t_best +. ratio_tol
                  && !leave >= 0
                  &&
                  if !bland then basis.(i) < basis.(!leave)
                  else Float.abs d.(i) > Float.abs d.(!leave))
            in
            if better then begin
              t_best := Float.max 0. limit;
              leave := i;
              leave_up := at_up
            end
          in
          for i = 0 to std.m - 1 do
            let k = basis.(i) in
            let delta = dir *. d.(i) in
            let xi = st.xb.(i) in
            if delta > ratio_tol then begin
              (* Basic decreasing. *)
              if xi > up.(k) +. feas_tol then
                (* Violated above: breakpoint where it regains u_k. *)
                consider i ((xi -. up.(k)) /. delta) true
              else if lo.(k) > neg_infinity && xi >= lo.(k) -. feas_tol then
                consider i ((xi -. lo.(k)) /. delta) false
              (* Violated below and still decreasing: no block. *)
            end
            else if delta < -.ratio_tol then begin
              (* Basic increasing. *)
              if xi < lo.(k) -. feas_tol then
                consider i ((lo.(k) -. xi) /. -.delta) false
              else if up.(k) < infinity && xi <= up.(k) +. feas_tol then
                consider i ((up.(k) -. xi) /. -.delta) true
            end
          done;
          if !t_best = infinity then begin
            (* A strictly improving phase-1 ray with no breakpoint can
               only be numerical noise; report infeasible rather than
               looping. *)
            outcome := `Infeasible;
            running := false
          end
          else begin
            let step = Float.max 0. !t_best in
            let degen = step <= ratio_tol in
            (if !leave < 0 then begin
               for i = 0 to std.m - 1 do
                 st.xb.(i) <- st.xb.(i) -. (dir *. step *. d.(i))
               done;
               st.stat.(j) <-
                 (match st.stat.(j) with VLower -> VUpper | _ -> VLower);
               incr iters
             end
             else begin
               let r = !leave in
               let k = basis.(r) in
               let enter_val = nb_value st ~lo ~up j +. (dir *. step) in
               match Basis.update st.bas ~row:r ~col:j ~d with
               | Error `Tiny_pivot | Error `Singular ->
                 outcome := `Singular;
                 running := false
               | Ok refreshed ->
                 for i = 0 to std.m - 1 do
                   st.xb.(i) <- st.xb.(i) -. (dir *. step *. d.(i))
                 done;
                 st.xb.(r) <- enter_val;
                 st.stat.(k) <- (if !leave_up then VUpper else VLower);
                 st.stat.(j) <- VBasic;
                 if refreshed = `Refactored then compute_xb st ~lo ~up;
                 incr iters
             end);
            if !running then
              if degen then begin
                incr streak;
                if !streak > degenerate_streak_limit then bland := true
              end
              else begin
                streak := 0;
                bland := false
              end
          end
        end
      end
    end
  done;
  (!outcome, !iters)

(* ------------------------------------------------------------------ *)
(* Dual simplex                                                        *)
(* ------------------------------------------------------------------ *)

type dual_outcome =
  | D_feasible
  | D_infeasible
  | D_iters
  | D_singular
  | D_floor of float

(* The objective of the current basic solution: while the basis is dual
   feasible, a lower bound on the optimum that rises pivot by pivot. *)
let basic_objective st =
  let std = st.std in
  let cost = std.cost in
  let basis = Basis.basis st.bas in
  let z = ref 0. in
  for i = 0 to std.m - 1 do
    z := !z +. (cost.(basis.(i)) *. st.xb.(i))
  done;
  for j = 0 to std.nstruct - 1 do
    if st.stat.(j) <> VBasic && cost.(j) <> 0. then
      z := !z +. (cost.(j) *. nb_value st ~lo:std.lo ~up:std.up j)
  done;
  !z

(* The Lagrangian bound of the current duals y: for every x in the box
   with A x + s = b,  c x = y b + sum_j d_j x_j  over all columns (the
   logical s_i has cost 0 and reduced cost -y_i), so  y b  plus the least
   each d_j x_j can be over its column's bounds bounds the optimum from
   below, whatever y is.  Round-off residue in the reduced costs (basic
   columns included) weakens the bound by residue times range instead of
   breaking it.  [neg_infinity] when a range needed is unbounded. *)
let lagrangian_bound st =
  let std = st.std in
  let mat = std.mat in
  let lo = std.lo and up = std.up in
  compute_duals st ~cost:std.cost;
  let z = ref 0. in
  for i = 0 to std.m - 1 do
    z := !z +. (st.y.(i) *. std.b.(i))
  done;
  for j = 0 to std.n - 1 do
    let dj =
      if j < std.nstruct then std.cost.(j) -. col_dot mat st.y j
      else -.st.y.(j - std.nstruct)
    in
    if dj > 0. then z := !z +. (dj *. lo.(j))
    else if dj < 0. then z := !z +. (dj *. up.(j))
  done;
  !z

(* [Some b] when the current basis proves the optimum is at least
   [b >= floor]: the cheap basic objective gates the full Lagrangian
   bound, which alone may stop the search. *)
let floor_reached st floor =
  if basic_objective st < floor then None
  else
    let b = lagrangian_bound st in
    if b >= floor then Some b else None

(* Requires dual feasibility of the starting basis; drives out primal
   bound violations (the situation after a branch-and-bound bound
   change).  Short-step variant: the entering variable may overshoot its
   opposite bound and become the next leaving candidate.  With [floor],
   stops with [D_floor b] once a violated basis proves the optimum is at
   least [b >= floor]. *)
let dual ?floor st ~budget =
  let std = st.std in
  let mat = std.mat in
  let lo = std.lo and up = std.up in
  let rho = st.rho in
  let d = st.d in
  let iters = ref 0 and streak = ref 0 and bland = ref false in
  let retries = ref 0 in
  let outcome = ref D_feasible in
  let running = ref true in
  compute_xb st ~lo ~up;
  while !running do
    if !iters >= budget then begin
      outcome := D_iters;
      running := false
    end
    else begin
      let basis = Basis.basis st.bas in
      let r = ref (-1) and worst = ref feas_tol in
      for i = 0 to std.m - 1 do
        let k = basis.(i) in
        let v = Float.max (lo.(k) -. st.xb.(i)) (st.xb.(i) -. up.(k)) in
        if v > !worst then begin
          worst := v;
          r := i
        end
      done;
      let proved =
        match floor with
        | Some f when !r >= 0 -> floor_reached st f
        | _ -> None
      in
      if !r < 0 then begin
        outcome := D_feasible;
        running := false
      end
      else if Option.is_some proved then begin
        outcome := D_floor (Option.get proved);
        running := false
      end
      else begin
        let r = !r in
        let k = basis.(r) in
        let to_upper = st.xb.(r) > up.(k) in
        Array.fill rho 0 std.m 0.;
        rho.(r) <- 1.;
        Basis.btran st.bas rho;
        compute_duals st ~cost:std.cost;
        let best = ref (-1)
        and best_ratio = ref infinity
        and best_alpha = ref 0. in
        (try
           for j = 0 to std.n - 1 do
             if st.stat.(j) <> VBasic && up.(j) -. lo.(j) > ratio_tol then begin
               let alpha = col_dot mat rho j in
               let ok =
                 match (st.stat.(j), to_upper) with
                 | VLower, true | VUpper, false -> alpha > ratio_tol
                 | VUpper, true | VLower, false -> alpha < -.ratio_tol
                 | VFree, _ -> Float.abs alpha > ratio_tol
                 | VBasic, _ -> false
               in
               if ok then begin
                 let z = std.cost.(j) -. col_dot mat st.y j in
                 let ratio = Float.abs z /. Float.abs alpha in
                 let better =
                   if !bland then !best < 0
                   else
                     ratio < !best_ratio -. 1e-12
                     || (ratio < !best_ratio +. 1e-12
                        && Float.abs alpha > Float.abs !best_alpha)
                 in
                 if better then begin
                   best := j;
                   best_ratio := ratio;
                   best_alpha := alpha;
                   if !bland then raise Exit
                 end
               end
             end
           done
         with Exit -> ());
        if !best < 0 then begin
          outcome := D_infeasible;
          running := false
        end
        else begin
          let j = !best in
          load_col mat d j;
          Basis.ftran st.bas d;
          if Float.abs d.(r) <= ratio_tol then begin
            (* btran row and ftran column disagree: stale factors. *)
            incr retries;
            if !retries > 3 then begin
              outcome := D_singular;
              running := false
            end
            else
              match Basis.refactorize st.bas with
              | Ok () -> compute_xb st ~lo ~up
              | Error `Singular ->
                outcome := D_singular;
                running := false
          end
          else begin
            retries := 0;
            let bound_k = if to_upper then up.(k) else lo.(k) in
            let delta = (st.xb.(r) -. bound_k) /. d.(r) in
            let enter_val = nb_value st ~lo ~up j +. delta in
            match Basis.update st.bas ~row:r ~col:j ~d with
            | Error `Tiny_pivot | Error `Singular ->
              outcome := D_singular;
              running := false
            | Ok refreshed ->
              for i = 0 to std.m - 1 do
                st.xb.(i) <- st.xb.(i) -. (delta *. d.(i))
              done;
              st.xb.(r) <- enter_val;
              st.stat.(k) <- (if to_upper then VUpper else VLower);
              st.stat.(j) <- VBasic;
              if refreshed = `Refactored then compute_xb st ~lo ~up;
              incr iters;
              if !best_ratio <= 1e-9 then begin
                incr streak;
                if !streak > degenerate_streak_limit then bland := true
              end
              else begin
                streak := 0;
                bland := false
              end
          end
        end
      end
    end
  done;
  (!outcome, !iters)

(* ------------------------------------------------------------------ *)
(* Extraction and snapshots                                            *)
(* ------------------------------------------------------------------ *)

let extract st =
  let std = st.std in
  let x = Array.make std.nstruct 0. in
  for j = 0 to std.nstruct - 1 do
    if st.stat.(j) <> VBasic then x.(j) <- nb_value st ~lo:std.lo ~up:std.up j
  done;
  let basis = Basis.basis st.bas in
  for i = 0 to std.m - 1 do
    if basis.(i) < std.nstruct then x.(basis.(i)) <- st.xb.(i)
  done;
  x

let snapshot_of st =
  {
    sm = st.std.m;
    sn = st.std.n;
    sbasis = Array.copy (Basis.basis st.bas);
    sstat = Array.copy st.stat;
  }

let snapshot_basis snap = Array.copy snap.sbasis

(* Appending k rows to the problem appends k logical columns
   [nstruct + sm .. nstruct + sm + k - 1].  Making them basic keeps the
   extended basis nonsingular (the new block is an identity under a
   permutation, so the matrix is block triangular) and, because logicals
   carry zero cost, preserves dual feasibility: a violated appended row
   shows up as its basic logical below its lower bound, exactly the
   situation the dual simplex repairs.  This is what makes cut rounds a
   warm re-entry instead of a cold solve. *)
let extend_snapshot snap ~added =
  if added < 0 then invalid_arg "Revised.extend_snapshot: negative count";
  if added = 0 then snap
  else begin
    let nstruct = snap.sn - snap.sm in
    {
      sm = snap.sm + added;
      sn = snap.sn + added;
      sbasis =
        Array.append snap.sbasis
          (Array.init added (fun i -> nstruct + snap.sm + i));
      sstat = Array.append snap.sstat (Array.make added VBasic);
    }
  end

(* Removing a row is only basis-preserving when that row's logical is
   basic (true for any Le row slack at positive slack: a nonbasic Le
   logical rests at its lower bound 0).  Deleting the row and its unit
   logical column is then a cofactor expansion along a unit column, so
   the reduced basis stays nonsingular.  Returns [None] when any removed
   row's logical is nonbasic — the caller must keep those rows. *)
let shrink_snapshot snap ~removed_rows =
  match removed_rows with
  | [] -> Some snap
  | _ ->
    let nstruct = snap.sn - snap.sm in
    let gone = Array.make snap.sm false in
    List.iter
      (fun r ->
        if r < 0 || r >= snap.sm then
          invalid_arg "Revised.shrink_snapshot: row out of range";
        gone.(r) <- true)
      removed_rows;
    let k = Array.fold_left (fun a g -> if g then a + 1 else a) 0 gone in
    let removable = ref true in
    for r = 0 to snap.sm - 1 do
      if gone.(r) && snap.sstat.(nstruct + r) <> VBasic then removable := false
    done;
    if not !removable then None
    else begin
      (* shift.(r) = number of removed rows before r; a kept logical at
         column [nstruct + r] moves to [nstruct + r - shift r]. *)
      let shift = Array.make snap.sm 0 in
      let acc = ref 0 in
      for r = 0 to snap.sm - 1 do
        shift.(r) <- !acc;
        if gone.(r) then incr acc
      done;
      let sbasis =
        Array.of_list
          (List.filter_map
             (fun c ->
               if c >= nstruct then begin
                 let r = c - nstruct in
                 if gone.(r) then None else Some (c - shift.(r))
               end
               else Some c)
             (Array.to_list snap.sbasis))
      in
      if Array.length sbasis <> snap.sm - k then None
      else begin
        let sstat = Array.make (snap.sn - k) VLower in
        Array.blit snap.sstat 0 sstat 0 nstruct;
        let j = ref nstruct in
        for r = 0 to snap.sm - 1 do
          if not gone.(r) then begin
            sstat.(!j) <- snap.sstat.(nstruct + r);
            incr j
          end
        done;
        Some { sm = snap.sm - k; sn = snap.sn - k; sbasis; sstat }
      end
    end

let dual_feasible st =
  let std = st.std in
  let mat = std.mat in
  compute_duals st ~cost:std.cost;
  let ok = ref true in
  for j = 0 to std.n - 1 do
    if !ok && st.stat.(j) <> VBasic && std.up.(j) -. std.lo.(j) > ratio_tol
    then begin
      let z = std.cost.(j) -. col_dot mat st.y j in
      match st.stat.(j) with
      | VLower -> if z < -.warm_dual_tol then ok := false
      | VUpper -> if z > warm_dual_tol then ok := false
      | VFree -> if Float.abs z > warm_dual_tol then ok := false
      | VBasic -> ()
    end
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

let default_budget std = (50 * (std.m + std.n)) + 2000

let fresh_state (ws : workspace) bas =
  { std = ws.std; bas; stat = ws.stat; xb = ws.xb; y = ws.y; rho = ws.rho;
    d = ws.d; rhs = ws.rhs }

(* Cold solve: logical basis, composite phase 1 when the starting point
   violates bounds, then phase 2 on the true costs. *)
let run_cold (ws : workspace) ~budget =
  let std = ws.std in
  let stat = ws.stat in
  for j = 0 to std.nstruct - 1 do
    stat.(j) <-
      (if std.lo.(j) > neg_infinity then VLower
       else if std.up.(j) < infinity then VUpper
       else VFree)
  done;
  let basis = Array.init std.m (fun i -> std.nstruct + i) in
  Array.iter (fun k -> stat.(k) <- VBasic) basis;
  match Basis.create ws.sc std.mat basis with
  | Error `Singular ->
    (* The logical basis is an identity matrix; unreachable. *)
    (Infeasible, None, 0, 0)
  | Ok bas ->
    let st = fresh_state ws bas in
    let p1_outcome, p1_iters = phase1 st ~budget in
    let refac () = Basis.refactorizations bas in
    let outcome =
      match p1_outcome with
      | `Infeasible -> (Infeasible, None, p1_iters, refac ())
      | `Iters | `Singular -> (Iteration_limit, None, p1_iters, refac ())
      | `Feasible -> (
        let outcome, p2_iters =
          primal st ~cost:std.cost ~lo:std.lo ~up:std.up
            ~budget:(Int.max 0 (budget - p1_iters))
        in
        let total = p1_iters + p2_iters in
        match outcome with
        | P_optimal ->
          ( Optimal { x = [||]; obj = 0.; basis = snapshot_of st },
            Some st,
            total,
            refac () )
        | P_unbounded -> (Unbounded, None, total, refac ())
        | P_iters | P_singular -> (Iteration_limit, None, total, refac ()))
    in
    outcome

let optimal prob st =
  let x = extract st in
  Optimal { x; obj = Lp_problem.objective_value prob x; basis = snapshot_of st }

let finish prob st result =
  match result with Optimal _ -> optimal prob st | r -> r

(* A cold solve in [ws], after [dual_pivots] pivots and [refac0]
   refactorizations spent on a path that gave up. *)
let cold_solve (ws : workspace) prob ~budget ~dual_pivots ~refac0 =
  let result, st, pivots, refac = run_cold ws ~budget in
  let result =
    match st with Some st -> finish prob st result | None -> result
  in
  ( result,
    { primal_pivots = pivots; dual_pivots;
      refactorizations = refac0 + refac; warm = false } )

(* Primal phase 2 from a primal feasible basis, after [dual_pivots]
   dual simplex pivots; when those reached dual feasibility too, it
   normally certifies optimality in zero pivots.  [`Cold] hands back the
   pivots and refactorizations spent when only a cold solve can finish
   the job. *)
let finish_primal st prob ~budget ~dual_pivots ~warm =
  let std = st.std in
  let pouts, piters =
    primal st ~cost:std.cost ~lo:std.lo ~up:std.up
      ~budget:(Int.max 0 (budget - dual_pivots))
  in
  let refactorizations = Basis.refactorizations st.bas in
  let mk r =
    `Done (r, { primal_pivots = piters; dual_pivots; refactorizations; warm })
  in
  match pouts with
  | P_optimal -> mk (optimal prob st)
  | P_unbounded -> mk Unbounded
  | P_iters -> mk Iteration_limit
  | P_singular -> `Cold (dual_pivots, refactorizations)

let solve_ws (ws : workspace) ?max_iters prob =
  if Fault.fire site_iteration_limit then
    ( Iteration_limit,
      { primal_pivots = 0; dual_pivots = 0; refactorizations = 0;
        warm = false } )
  else begin
  let std = sync ws prob in
  let budget = match max_iters with Some b -> b | None -> default_budget std in
  cold_solve ws prob ~budget ~dual_pivots:0 ~refac0:0
  end

let solve ?max_iters prob = solve_ws (workspace ()) ?max_iters prob

type probe = Below of float | Solved of result

(* The bound-favourable start: the logical basis, with every costed
   structural at the bound its cost prefers and the others where a cold
   start parks them.  Every reduced cost is then the cost itself, so the
   start is dual feasible and its objective is the interval bound.
   [false] when a favourable bound is infinite. *)
let favourable_start (ws : workspace) =
  let std = ws.std and stat = ws.stat in
  let ok = ref true in
  for j = 0 to std.nstruct - 1 do
    let c = std.cost.(j) and lo = std.lo.(j) and up = std.up.(j) in
    stat.(j) <-
      (if c > 0. then VLower
       else if c < 0. then VUpper
       else if lo > neg_infinity then VLower
       else if up < infinity then VUpper
       else VFree);
    if (c > 0. && lo = neg_infinity) || (c < 0. && up = infinity) then
      ok := false
  done;
  for i = 0 to std.m - 1 do
    stat.(std.nstruct + i) <- VBasic
  done;
  !ok

let probe_sup_ws (ws : workspace) ~threshold prob =
  if Lp_problem.sense prob <> Lp_problem.Maximize then
    invalid_arg "Revised.probe_sup_ws: the problem must maximize";
  if Fault.fire site_iteration_limit then
    ( Solved Iteration_limit,
      { primal_pivots = 0; dual_pivots = 0; refactorizations = 0;
        warm = false } )
  else begin
    let std = sync ws prob in
    let budget = default_budget std in
    let cold ~dual_pivots ~refac0 =
      let result, stats = cold_solve ws prob ~budget ~dual_pivots ~refac0 in
      (Solved result, stats)
    in
    let logicals = Array.init std.m (fun i -> std.nstruct + i) in
    if not (favourable_start ws) then cold ~dual_pivots:0 ~refac0:0
    else
      match Basis.create ws.sc std.mat logicals with
      | Error `Singular -> cold ~dual_pivots:0 ~refac0:0
      | Ok bas -> (
        let st = fresh_state ws bas in
        (* Minimization costs: sup <= threshold is the optimum's
           lower bound reaching -threshold. *)
        let douts, diters = dual ~floor:(-.threshold) st ~budget in
        let stats =
          { primal_pivots = 0; dual_pivots = diters;
            refactorizations = Basis.refactorizations bas; warm = false }
        in
        match douts with
        | D_floor b -> (Below (-.b), stats)
        | D_infeasible -> (Solved Infeasible, stats)
        | D_iters | D_singular ->
          cold ~dual_pivots:diters ~refac0:(Basis.refactorizations bas)
        | D_feasible -> (
          match
            finish_primal st prob ~budget ~dual_pivots:diters ~warm:false
          with
          | `Done (r, stats) -> (Solved r, stats)
          | `Cold (dual_pivots, refac0) -> cold ~dual_pivots ~refac0))
  end

let valid_snapshot snap std =
  snap.sm = std.m && snap.sn = std.n
  && Array.for_all (fun e -> e >= 0 && e < std.n) snap.sbasis

(* The factor of one snapshot's basis, made by the first solve that
   needs it and reused by the next ones from the same snapshot on the
   same workspace matrix.  Only the domain that made it reads it. *)
type slot_entry = {
  e_ws : workspace;
  e_gen : int;
  e_snap : snapshot;
  e_factor : Basis.factor;
}

type factor_slot = {
  mutable entry : slot_entry option;
  mutable uses : int;  (* warm starts still to come *)
}

let factor_slot ?(uses = max_int) () = { entry = None; uses }

(* A solve state on the snapshot's basis: on the slot's factor when it
   holds this snapshot's, otherwise factorized (and kept in the slot,
   if there is one). *)
let start_warm (ws : workspace) slot snap std =
  match slot with
  | None -> Basis.create ws.sc std.mat snap.sbasis
  | Some sl ->
    let f =
      match sl.entry with
      | Some e when e.e_ws == ws && e.e_gen = ws.gen && e.e_snap == snap ->
        Ok e.e_factor
      | _ ->
        let made = Basis.factorize ws.sc std.mat snap.sbasis in
        Result.iter
          (fun f ->
            sl.entry <-
              Some { e_ws = ws; e_gen = ws.gen; e_snap = snap; e_factor = f })
          made;
        made
    in
    (* The last expected user lets the factor go before its own subtree
       runs, so a deep dive does not keep one factor per level. *)
    sl.uses <- sl.uses - 1;
    if sl.uses <= 0 then sl.entry <- None;
    Result.map (Basis.of_factor ws.sc std.mat) f

(* Dual simplex from a started warm basis, then the closing primal
   pass. *)
let run_warm st ~budget prob =
  let std = st.std and bas = st.bas in
  if dual_feasible st then begin
    let douts, diters = dual st ~budget in
    match douts with
    | D_feasible -> finish_primal st prob ~budget ~dual_pivots:diters ~warm:true
    | D_infeasible ->
      `Done
        ( Infeasible,
          { primal_pivots = 0; dual_pivots = diters;
            refactorizations = Basis.refactorizations bas; warm = true } )
    | D_iters ->
      `Done
        ( Iteration_limit,
          { primal_pivots = 0; dual_pivots = diters;
            refactorizations = Basis.refactorizations bas; warm = true } )
    | D_singular -> `Cold (diters, Basis.refactorizations bas)
    | D_floor _ -> assert false (* the warm path sets no floor *)
  end
  else begin
    (* Costs changed or tolerance drift: if the snapshot is at least
       primal feasible, restart primal phase 2 from it. *)
    compute_xb st ~lo:std.lo ~up:std.up;
    if primal_infeasibility st ~lo:std.lo ~up:std.up <= feas_tol then
      finish_primal st prob ~budget ~dual_pivots:0 ~warm:true
    else `Cold (0, Basis.refactorizations bas)
  end

let solve_from_ws (ws : workspace) ?max_iters ?slot snap prob =
  if Fault.fire site_iteration_limit then
    ( Iteration_limit,
      { primal_pivots = 0; dual_pivots = 0; refactorizations = 0;
        warm = true } )
  else begin
  let std = sync ws prob in
  let budget = match max_iters with Some b -> b | None -> default_budget std in
  let cold = cold_solve ws prob ~budget in
  if not (valid_snapshot snap std) then cold ~dual_pivots:0 ~refac0:0
  else begin
    let stat = ws.stat in
    Array.blit snap.sstat 0 stat 0 std.n;
    (* Legalize rest statuses against the current bounds (a branch may
       have removed the bound a variable was parked at). *)
    for j = 0 to std.n - 1 do
      match stat.(j) with
      | VBasic -> ()
      | VLower ->
        if std.lo.(j) = neg_infinity then
          stat.(j) <- (if std.up.(j) < infinity then VUpper else VFree)
      | VUpper ->
        if std.up.(j) = infinity then
          stat.(j) <- (if std.lo.(j) > neg_infinity then VLower else VFree)
      | VFree ->
        if std.lo.(j) > neg_infinity then stat.(j) <- VLower
        else if std.up.(j) < infinity then stat.(j) <- VUpper
    done;
    (* The fault fires once per warm solve, whether or not the factor
       would have been reused, and a fired fault leaves the slot as it
       was. *)
    let started =
      if Fault.fire site_singular_lu then Error `Singular
      else start_warm ws slot snap std
    in
    match started with
    | Error `Singular -> cold ~dual_pivots:0 ~refac0:0
    | Ok bas -> (
      match run_warm (fresh_state ws bas) ~budget prob with
      | `Done r -> r
      | `Cold (dual_pivots, refac0) -> cold ~dual_pivots ~refac0)
  end
  end

let solve_from ?max_iters snap prob =
  solve_from_ws (workspace ()) ?max_iters snap prob
