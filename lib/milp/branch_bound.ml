module Lp_problem = Fp_lp.Lp_problem
module Revised = Fp_lp.Revised
module Pool = Fp_util.Pool
module Fault = Fp_util.Fault

let src = Logs.Src.create "fp.milp" ~doc:"branch-and-bound"

module Log = (val Logs.src_log src : Logs.LOG)

(* Fault sites: forced budget exhaustion (the anytime path — the best
   incumbent, usually the caller's warm start, is returned immediately)
   and frontier-task loss (a captured subtree's result vanishes; the
   consume loop re-runs it on the calling domain under the exact
   contract the sequential search would have given it, so determinism
   survives the loss). *)
let site_budget = Fault.register "branch_bound.budget"
let site_task_loss = Fault.register "branch_bound.task_loss"

type branch_rule = Most_fractional | First_fractional

(* A globally valid inequality [sum terms <= rhs], produced by a
   separation callback against a fractional LP point. *)
type cut = {
  cut_name : string;
  cut_terms : (float * int) list;
  cut_rhs : float;
}

type cutter = float array -> cut list

type params = {
  node_limit : int;
  time_limit : float;
  min_improvement : float;
  branch_rule : branch_rule;
  warm_lp : bool;
  jobs : int;
  ramp_nodes : int;
  propagate : bool;
}

let default_params =
  {
    node_limit = 200_000;
    time_limit = 120.;
    min_improvement = 1e-7;
    branch_rule = Most_fractional;
    warm_lp = true;
    jobs = 1;
    ramp_nodes = 32;
    propagate = false;
  }

let max_cut_rounds = 4
let cuts_per_round = 16

(* Integrality tolerance: a value this close to an integer counts as
   integral. *)
let int_tol = 1e-6

type status = Optimal | Feasible | Infeasible | Unbounded | No_solution

type domain_work = {
  d_nodes : int;
  d_lp_solves : int;
  d_warm_hits : int;
  d_cold_solves : int;
  d_refactorizations : int;
  d_pivots : int;
  d_numerical_recoveries : int;
  d_cuts_added : int;
  d_cuts_purged : int;
  d_separation_time : float;
}

type outcome = {
  status : status;
  best : (float array * float) option;
  nodes : int;
  lp_solves : int;
  warm_hits : int;
  cold_solves : int;
  refactorizations : int;
  pivots : int;
  numerical_recoveries : int;
  cuts_added : int;
  cuts_purged : int;
  separation_time : float;
  tasks_lost : int;
  root_bound : float;
  elapsed : float;
  per_domain : domain_work array;
  frontier_tasks : int;
  waves : int;
}

(* A subtree handed to the pool: the accumulated variable-bound settings
   from the root (absolute values, root-first, later entries override
   earlier ones for the same variable), plus the parent's LP bound and
   basis snapshot ({!Revised.snapshot} is immutable, so sharing it across
   domains is safe — each domain factorizes it in its own workspace). *)
type task = {
  t_trail : (int * float * float) list;
  t_depth : int;
  t_basis : Revised.snapshot option;
  t_bound : float;
  t_cuts : Lp_problem.constr list;
      (* cut rows active above the captured subtree (appended by
         ancestors and still binding when the frontier was captured);
         the replaying worker re-appends them so [t_basis] matches its
         problem's row count *)
}

type search = {
  model : Model.t;
  prob : Lp_problem.t;
  ws : Revised.workspace;       (* this domain's LP workspace for [prob] *)
  prm : params;
  sense_mult : float;           (* +1 minimize, -1 maximize *)
  partner : (int, int) Hashtbl.t; (* pair membership, symmetric *)
  is_integer : int -> bool;     (* integer-variable membership, for
                                   bound snapping during propagation *)
  prop_rows : Lp_problem.constr array;
                                (* valid rows outside the LP (the lazy cut
                                   pool) that still join propagation *)
  cutter : cutter option;       (* separation callback, None = no cuts *)
  base_nrows : int;             (* rows the model owns; cut rows live above *)
  mutable deadline : float;
  mutable node_budget : int;    (* this search stops at [nodes >= node_budget] *)
  suspendable : bool;           (* suspend at the budget check instead of
                                   stopping; see [out_of_budget] *)
  mutable capture : (task -> unit) option;
  mutable ramp_limit : int;     (* capture instead of exploring beyond this *)
  mutable nodes : int;
  mutable lp_solves : int;
  mutable warm_hits : int;
  mutable cold_solves : int;
  mutable refactorizations : int;
  mutable pivots : int;
  mutable numerical_recoveries : int;
  mutable cuts_added : int;
  mutable cuts_purged : int;
  mutable separation_time : float;
      (* node LPs that needed a recovery path: a requested warm start
         that fell back to a cold solve, or an LP that hit its own
         iteration limit and was handled via the parent-bound retreat *)
  mutable best_m : float;       (* incumbent objective, minimized form *)
  mutable best_x : float array option;
  mutable out_of_budget : bool;
  mutable root_unbounded : bool;
  mutable bound_incomplete : bool;
      (* true when a subtree had to be abandoned without a trustworthy
         bound; demotes Optimal to Feasible *)
}

let fractionality x v =
  let f = x.(v) -. Float.round x.(v) in
  Float.abs f

(* Branch variable per the configured rule, or None when integral. *)
let pick_branch_var s x =
  match s.prm.branch_rule with
  | Most_fractional ->
    let best = ref (-1) and best_f = ref int_tol in
    List.iter
      (fun v ->
        let f = fractionality x v in
        if f > !best_f then begin
          best_f := f;
          best := v
        end)
      (Model.integer_vars s.model);
    if !best < 0 then None else Some !best
  | First_fractional ->
    List.find_opt
      (fun v -> fractionality x v > int_tol)
      (Model.integer_vars s.model)

let update_incumbent s x m =
  if m < s.best_m -. s.prm.min_improvement then begin
    s.best_m <- m;
    s.best_x <- Some (Array.copy x);
    Log.debug (fun f ->
        f "incumbent %.6g after %d nodes" (s.sense_mult *. m) s.nodes)
  end

(* Explore under temporarily tightened bounds; always restores. *)
let with_bounds s settings k =
  let saved =
    List.map
      (fun (v, _, _) -> (v, Lp_problem.var_lb s.prob v, Lp_problem.var_ub s.prob v))
      settings
  in
  List.iter (fun (v, lb, ub) -> Lp_problem.set_bounds s.prob v ~lb ~ub) settings;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (v, lb, ub) -> Lp_problem.set_bounds s.prob v ~lb ~ub)
        saved)
    k

let budget_exhausted s =
  s.nodes >= s.node_budget
  || Unix.gettimeofday () > s.deadline
  || Fault.fire site_budget

(* Performed at a suspendable search's budget check; the handler in
   [start] suspends the search there. *)
type _ Effect.t += Budget_spent : unit Effect.t

(* The budget check before every node.  An exhausted budget stops the
   search, unless it is suspendable: then it suspends, with
   [out_of_budget] set so the handler reports what a stop would, and on
   resumption under new limits ({!resume}) checks again. *)
let rec out_of_budget s =
  budget_exhausted s
  && begin
    s.out_of_budget <- true;
    (not s.suspendable)
    || begin
      Effect.perform Budget_spent;
      s.out_of_budget <- false;
      out_of_budget s
    end
  end

(* One LP relaxation: warm-start from the parent's optimal basis via the
   dual simplex when available (bound-only changes keep it dual
   feasible), cold otherwise.  [Revised.solve_from_ws] falls back to a cold
   solve internally on singular or stale bases; stats.warm records which
   path actually produced the answer.  Siblings share the parent's
   [slot], so the parent basis is factorized once per branching. *)
let solve_node_lp s parent_basis ~slot =
  s.lp_solves <- s.lp_solves + 1;
  let warm_requested = s.prm.warm_lp && Option.is_some parent_basis in
  let result, (st : Revised.stats) =
    match parent_basis with
    | Some snap when warm_requested ->
      Revised.solve_from_ws s.ws ~slot snap s.prob
    | _ -> Revised.solve_ws s.ws s.prob
  in
  s.pivots <- s.pivots + st.primal_pivots + st.dual_pivots;
  s.refactorizations <- s.refactorizations + st.refactorizations;
  if st.warm then s.warm_hits <- s.warm_hits + 1
  else s.cold_solves <- s.cold_solves + 1;
  if
    (warm_requested && not st.warm)
    || (match result with Revised.Iteration_limit -> true | _ -> false)
  then s.numerical_recoveries <- s.numerical_recoveries + 1;
  result

(* A stand-in LP point when the node's LP failed: every unfixed integer
   variable sits strictly between its bounds so the branching rules see
   it as fractional; fixed variables take their value. *)
let pseudo_point s =
  Array.init (Lp_problem.num_vars s.prob) (fun v ->
      let lb = Lp_problem.var_lb s.prob v and ub = Lp_problem.var_ub s.prob v in
      if ub -. lb <= int_tol then lb
      else if lb > neg_infinity then lb +. 0.5
      else if ub < infinity then ub -. 0.5
      else 0.5)

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

(* Slack threshold above which a node-local cut row is considered
   inactive and purged (before the basis accumulates stale rows that
   only make LU refactorization more expensive). *)
let cut_purge_tol = 1e-7

(* Cut rows currently active above the model's own rows — what a
   captured frontier task must replay before using its basis snapshot. *)
let captured_cuts s =
  let n = Lp_problem.num_constrs s.prob in
  List.init (n - s.base_nrows) (fun k ->
      Lp_problem.constr_at s.prob (s.base_nrows + k))

(* Cut rounds at one node: separate violated inequalities against the
   relaxation point, append them, and re-solve warm — the appended rows'
   logicals enter the basis ({!Revised.extend_snapshot}), so the dual
   simplex repairs the violation from the current basis instead of a
   cold solve.  Returns [None] when the cut-augmented LP is infeasible:
   cuts are globally valid, so the subtree provably holds no integer
   point.  On a numerical bail (unbounded / iteration limit) this
   round's rows are dropped and the last clean relaxation stands.  Cut
   re-solves accumulate [pivots]/[refactorizations] but are not node
   LPs: [nodes = lp_solves] stays exact. *)
let cut_rounds s x m basis =
  match s.cutter with
  | None -> Some (x, m, basis)
  | Some separate ->
    let rec loop x m basis round =
      if round >= max_cut_rounds then Some (x, m, basis)
      else begin
        let t0 = Unix.gettimeofday () in
        let violated = separate x in
        s.separation_time <-
          s.separation_time +. (Unix.gettimeofday () -. t0);
        match take cuts_per_round violated with
        | [] -> Some (x, m, basis)
        | cuts ->
          let before = Lp_problem.num_constrs s.prob in
          List.iter
            (fun c ->
              Lp_problem.add_constr s.prob ~name:c.cut_name c.cut_terms
                Lp_problem.Le c.cut_rhs)
            cuts;
          let added = Lp_problem.num_constrs s.prob - before in
          s.cuts_added <- s.cuts_added + added;
          let snap = Revised.extend_snapshot basis ~added in
          let result, (st : Revised.stats) =
            Revised.solve_from_ws s.ws snap s.prob
          in
          s.pivots <- s.pivots + st.primal_pivots + st.dual_pivots;
          s.refactorizations <- s.refactorizations + st.refactorizations;
          if not st.warm then
            s.numerical_recoveries <- s.numerical_recoveries + 1;
          (match result with
          | Revised.Optimal { x; obj; basis } ->
            let m =
              s.sense_mult *. (obj +. Model.objective_constant s.model)
            in
            loop x m basis (round + 1)
          | Revised.Infeasible -> None
          | Revised.Unbounded | Revised.Iteration_limit ->
            Lp_problem.truncate_constrs s.prob before;
            Some (x, m, basis))
      end
    in
    loop x m basis 0

(* Purge this node's cut rows that are slack at the final relaxation
   point, so children inherit only binding cuts.  Only possible when
   every purged row's logical is basic ({!Revised.shrink_snapshot});
   otherwise the rows are kept — correct either way, purging is purely
   a basis-hygiene optimization. *)
let purge_slack_cuts s ~entry_nrows x basis =
  let n = Lp_problem.num_constrs s.prob in
  if n <= entry_nrows then basis
  else begin
    let removed = ref [] in
    for i = n - 1 downto entry_nrows do
      let row = Lp_problem.constr_at s.prob i in
      let lhs =
        List.fold_left
          (fun a (c, v) -> a +. (c *. x.(v)))
          0. row.Lp_problem.terms
      in
      if
        row.Lp_problem.cmp = Lp_problem.Le
        && row.Lp_problem.rhs -. lhs > cut_purge_tol
      then removed := i :: !removed
    done;
    match !removed with
    | [] -> basis
    | rs -> (
      match Revised.shrink_snapshot basis ~removed_rows:rs with
      | Some snap ->
        Lp_problem.remove_constrs s.prob rs;
        s.cuts_purged <- s.cuts_purged + List.length rs;
        snap
      | None -> basis)
  end

(* [trail] is the accumulated bound-setting path from the root, newest
   first; it only matters while a capture hook is installed (parallel
   ramp-up), where it lets a pending subtree be replayed on another
   domain's copy of the problem. *)
(* Node-entry bound propagation ([params.propagate], the Tight / Cuts
   formulations): run the LP's interval sweep with integer snapping
   under the branching fixings in force.  Two prunes need no LP at all —
   an emptied interval (the fixed relations are geometrically
   impossible) and an objective box bound already at the cutoff.  Both
   are sound: interval propagation only ever excludes points no feasible
   completion can take.  The surviving tightenings stay applied while
   the subtree runs (the node LP and every descendant see them) and are
   restored on exit; they are also pushed onto the trail, so captured
   tasks replay the exact bounds on a worker. *)
let propagate_node s =
  if not s.prm.propagate then `Open ([], [])
  else begin
    let restore undo =
      List.iter
        (fun (v, lb, ub) -> Lp_problem.set_bounds s.prob v ~lb ~ub)
        undo
    in
    match
      Lp_problem.propagate_bounds ~integral:s.is_integer ~extra:s.prop_rows
        s.prob
    with
    | `Infeasible undo ->
      restore undo;
      `Pruned
    | `Ok undo ->
      let lo, hi = Lp_problem.objective_interval s.prob in
      let m_lo =
        (if s.sense_mult > 0. then lo else -.hi)
        +. (s.sense_mult *. Model.objective_constant s.model)
      in
      if m_lo >= s.best_m -. s.prm.min_improvement then begin
        restore undo;
        `Pruned
      end
      else
        `Open
          ( undo,
            List.map
              (fun (v, _, _) ->
                (v, Lp_problem.var_lb s.prob v, Lp_problem.var_ub s.prob v))
              undo )
  end

let rec explore s ~depth ~trail ~parent_basis ~slot ~parent_bound =
  match s.capture with
  | Some push when s.nodes >= s.ramp_limit ->
    (* Ramp-up budget spent: hand the whole pending subtree to the pool
       instead of exploring it.  Captures happen in DFS order, so task
       order is exactly the order the sequential search would have
       visited the subtrees in. *)
    push
      { t_trail = List.rev trail; t_depth = depth; t_basis = parent_basis;
        t_bound = parent_bound; t_cuts = captured_cuts s }
  | _ ->
    if not (out_of_budget s) then begin
      match propagate_node s with
      | `Pruned -> () (* pruned without becoming a node *)
      | `Open (undo, applied) ->
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun (v, lb, ub) -> Lp_problem.set_bounds s.prob v ~lb ~ub)
              undo)
          (fun () ->
            let trail = List.rev_append applied trail in
            s.nodes <- s.nodes + 1;
            expand s ~depth ~trail ~parent_basis ~parent_bound
              (solve_node_lp s parent_basis ~slot))
    end

(* Node expansion.  Cut rows appended here stay while the children run
   (they are globally valid, and the children's basis snapshots expect
   them) and are truncated when the node is left — strict stack
   discipline, which is what keeps parallel replay deterministic: a
   worker re-creates exactly the ancestors' rows from the task's
   [t_cuts] and nothing else. *)
and expand s ~depth ~trail ~parent_basis ~parent_bound result =
  let entry_nrows = Lp_problem.num_constrs s.prob in
  Fun.protect
    ~finally:(fun () -> Lp_problem.truncate_constrs s.prob entry_nrows)
    (fun () ->
      expand_node s ~depth ~trail ~parent_basis ~parent_bound ~entry_nrows
        result)

and expand_node s ~depth ~trail ~parent_basis ~parent_bound ~entry_nrows
    result =
  match result with
  | Revised.Infeasible -> ()
  | Revised.Iteration_limit ->
    (* No bound from this node's own LP, but the node is a restriction
       of its parent, so the parent's LP bound still applies: prune on
       it if possible, otherwise branch blind and keep going — only
       when the node is fully fixed must the subtree be abandoned, and
       then optimality can no longer be claimed. *)
    if parent_bound >= s.best_m -. s.prm.min_improvement then ()
    else begin
      Log.warn (fun f ->
          f "LP iteration limit at depth %d; retreating to parent bound"
            depth);
      let x = pseudo_point s in
      match pick_branch_var s x with
      | Some v -> branch s ~depth ~trail x v ~basis:parent_basis ~bound:parent_bound
      | None -> s.bound_incomplete <- true
    end
  | Revised.Unbounded ->
    if depth = 0 then s.root_unbounded <- true
    (* Deeper nodes are restrictions of the root; if the root was
       bounded this cannot happen. *)
  | Revised.Optimal { x; obj; basis } ->
    let m = s.sense_mult *. (obj +. Model.objective_constant s.model) in
    if m >= s.best_m -. s.prm.min_improvement then () (* bound prune *)
    else begin
      match cut_rounds s x m basis with
      | None -> () (* cut-augmented LP infeasible: subtree holds no
                      integer point (cuts are globally valid) *)
      | Some (x, m, basis) ->
        if m >= s.best_m -. s.prm.min_improvement then
          () (* bound prune after cut tightening — where cuts pay *)
        else begin
          match pick_branch_var s x with
          | None ->
            (* Integral (within tolerance): snap and accept. *)
            let snapped = Model.round_integers s.model x in
            let m_exact =
              s.sense_mult
              *. (Lp_problem.objective_value s.prob snapped
                 +. Model.objective_constant s.model)
            in
            (* Rounding can only move the objective through integer terms;
               re-check feasibility to be safe. *)
            if Lp_problem.constraint_violation s.prob snapped <= 1e-5 then
              update_incumbent s snapped m_exact
            else update_incumbent s x m
          | Some v ->
            let basis = purge_slack_cuts s ~entry_nrows x basis in
            branch s ~depth ~trail x v ~basis:(Some basis) ~bound:m
        end
    end

and branch s ~depth ~trail x v ~basis ~bound =
  let child slot settings =
    with_bounds s settings (fun () ->
        explore s ~depth:(depth + 1)
          ~trail:(List.rev_append settings trail)
          ~parent_basis:basis ~slot ~parent_bound:bound)
  in
  match Hashtbl.find_opt s.partner v with
  | Some w when fractionality x v > int_tol || fractionality x w > int_tol ->
    (* 4-way branching on the disjunction pair (v, w): each child fixes a
       combination, visiting the combination closest to the LP point
       first. *)
    let child = child (Revised.factor_slot ~uses:4 ()) in
    let combos = [ (0., 0.); (0., 1.); (1., 0.); (1., 1.) ] in
    let dist (a, b) = Float.abs (x.(v) -. a) +. Float.abs (x.(w) -. b) in
    let ordered =
      List.sort (fun c1 c2 -> compare (dist c1) (dist c2)) combos
    in
    List.iter
      (fun (a, b) ->
        if not s.out_of_budget then child [ (v, a, a); (w, b, b) ])
      ordered
  | _ ->
    (* Plain floor/ceil split, nearest side first. *)
    let lo = Float.floor x.(v) and hi = Float.ceil x.(v) in
    let lb = Lp_problem.var_lb s.prob v and ub = Lp_problem.var_ub s.prob v in
    let down_ok = lo >= lb -. 1e-9 and up_ok = hi <= ub +. 1e-9 in
    let uses = Bool.to_int down_ok + Bool.to_int up_ok in
    let child = child (Revised.factor_slot ~uses ()) in
    let down () =
      if down_ok && not s.out_of_budget then child [ (v, lb, lo) ]
    and up () = if up_ok && not s.out_of_budget then child [ (v, hi, ub) ] in
    if x.(v) -. lo <= hi -. x.(v) then begin
      down ();
      up ()
    end
    else begin
      up ();
      down ()
    end

let work_of s =
  {
    d_nodes = s.nodes; d_lp_solves = s.lp_solves; d_warm_hits = s.warm_hits;
    d_cold_solves = s.cold_solves; d_refactorizations = s.refactorizations;
    d_pivots = s.pivots;
    d_numerical_recoveries = s.numerical_recoveries;
    d_cuts_added = s.cuts_added; d_cuts_purged = s.cuts_purged;
    d_separation_time = s.separation_time;
  }

let sum_work ws =
  Array.fold_left
    (fun a w ->
      {
        d_nodes = a.d_nodes + w.d_nodes;
        d_lp_solves = a.d_lp_solves + w.d_lp_solves;
        d_warm_hits = a.d_warm_hits + w.d_warm_hits;
        d_cold_solves = a.d_cold_solves + w.d_cold_solves;
        d_refactorizations = a.d_refactorizations + w.d_refactorizations;
        d_pivots = a.d_pivots + w.d_pivots;
        d_numerical_recoveries =
          a.d_numerical_recoveries + w.d_numerical_recoveries;
        d_cuts_added = a.d_cuts_added + w.d_cuts_added;
        d_cuts_purged = a.d_cuts_purged + w.d_cuts_purged;
        d_separation_time = a.d_separation_time +. w.d_separation_time;
      })
    { d_nodes = 0; d_lp_solves = 0; d_warm_hits = 0; d_cold_solves = 0;
      d_refactorizations = 0; d_pivots = 0;
      d_numerical_recoveries = 0; d_cuts_added = 0; d_cuts_purged = 0;
      d_separation_time = 0. }
    ws

(* ------------------------------------------------------------------ *)
(* Parallel task execution                                             *)
(* ------------------------------------------------------------------ *)

(* What one subtree exploration reported, and under which contract
   (starting incumbent + node budget) it ran — the deterministic replay
   decides from the contract whether the speculation is admissible. *)
type task_result = {
  r_entry : float;
  r_budget : int;
  r_found : (float array * float) option;   (* minimized form *)
  r_nodes : int;
  r_hit_nodes : bool;
  r_hit_time : bool;
  r_bound_incomplete : bool;
}

(* Run one captured subtree on worker state [s] (its own problem copy):
   apply the trail, explore, restore the trail's variables from the root
   bounds.  Pure function of (task, entry, budget) apart from the wall
   clock. *)
let run_task s ~base_lb ~base_ub task ~entry ~budget =
  s.best_m <- entry;
  s.best_x <- None;
  s.out_of_budget <- false;
  s.bound_incomplete <- false;
  let nodes_before = s.nodes in
  s.node_budget <- s.nodes + budget;
  List.iter
    (fun (v, lb, ub) -> Lp_problem.set_bounds s.prob v ~lb ~ub)
    task.t_trail;
  (* Re-create the ancestors' cut rows so the task's basis snapshot
     matches this worker's problem; truncated again on the way out to
     keep the worker at root rows for the next task. *)
  let entry_nrows = Lp_problem.num_constrs s.prob in
  List.iter
    (fun (row : Lp_problem.constr) ->
      Lp_problem.add_constr s.prob ~name:row.Lp_problem.cname
        row.Lp_problem.terms row.Lp_problem.cmp row.Lp_problem.rhs)
    task.t_cuts;
  Fun.protect
    ~finally:(fun () ->
      Lp_problem.truncate_constrs s.prob entry_nrows;
      List.iter
        (fun (v, _, _) ->
          Lp_problem.set_bounds s.prob v ~lb:base_lb.(v) ~ub:base_ub.(v))
        task.t_trail)
    (fun () ->
      explore s ~depth:task.t_depth ~trail:[] ~parent_basis:task.t_basis
        ~slot:(Revised.factor_slot ()) ~parent_bound:task.t_bound);
  let nodes_used = s.nodes - nodes_before in
  {
    r_entry = entry;
    r_budget = budget;
    r_found =
      (match s.best_x with
      | Some x when s.best_m < entry -> Some (x, s.best_m)
      | _ -> None);
    r_nodes = nodes_used;
    r_hit_nodes = s.out_of_budget && nodes_used >= budget;
    r_hit_time = s.out_of_budget && nodes_used < budget;
    r_bound_incomplete = s.bound_incomplete;
  }

(* Explore the captured frontier on the pool.  [s] is the caller's
   search state, just finished with the ramp-up (its problem is back at
   root bounds); [finish] packages the outcome.

   The frontier phase replays the sequential search exactly: subtrees
   are explored speculatively in parallel (every task of a wave entering
   with the same incumbent bound), then their results are consumed in
   DFS order; a task whose speculation contract no longer matches what
   the sequential search would have given it — an earlier subtree
   improved the incumbent, or the node budget no longer covers what it
   used — is re-explored, incumbent-stale tasks as a fresh wave and
   budget-stale tasks alone with the exact remaining budget.  With a
   good warm start incumbent improvements are rare and one wave usually
   suffices. *)
let solve_frontier s ~pool ~jobs ~mk_search ~tasks ~finish =
  let owned_pool = ref None in
  let pool =
    match pool with
    | Some p -> p
    | None ->
      let p = Pool.create ~jobs in
      owned_pool := Some p;
      p
  in
  Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown !owned_pool)
  @@ fun () ->
  let base_lb =
    Array.init (Lp_problem.num_vars s.prob) (Lp_problem.var_lb s.prob)
  and base_ub =
    Array.init (Lp_problem.num_vars s.prob) (Lp_problem.var_ub s.prob)
  in
  (* Worker 0 is the calling domain and reuses the ramp-up search state;
     every other worker gets its own copy of the problem.  The copies
     MUST be taken here, before any task runs: worker 0 mutates [s.prob]
     bounds while executing its tasks, so a copy taken lazily mid-wave
     could capture a sibling's branch bounds as its root. *)
  let states =
    Array.init (Pool.jobs pool) (fun w ->
        if w = 0 then s else mk_search (Lp_problem.copy s.prob))
  in
  let state_of worker = states.(worker) in
  let n = Array.length tasks in
  let results : task_result option array = Array.make n None in
  let chain_m = ref s.best_m and chain_x = ref s.best_x in
  let consumed = ref s.nodes in
  let out_of_budget = ref s.out_of_budget in
  let bound_incomplete = ref s.bound_incomplete in
  let waves = ref 0 in
  let tasks_lost = ref 0 in
  let launch_wave ~from ~entry ~budget =
    incr waves;
    Pool.run pool ~n:(n - from) (fun ~worker k ->
        let i = from + k in
        if Fault.fire site_task_loss then
          (* The subtree's result vanishes (simulated worker loss); a
             stale result from an earlier wave must not survive either. *)
          results.(i) <- None
        else
          results.(i) <-
            Some (run_task (state_of worker) ~base_lb ~base_ub tasks.(i)
                    ~entry ~budget))
  in
  let accept r =
    consumed := !consumed + r.r_nodes;
    if r.r_bound_incomplete then bound_incomplete := true;
    match r.r_found with
    | Some (x, m) ->
      (* [run_task] only reports strict improvements over its entry
         bound, which was the chain value. *)
      chain_m := m;
      chain_x := Some x
    | None -> ()
  in
  (* If the ramp-up itself ran out of budget the sequential search
     would touch none of the captured subtrees. *)
  let i = ref 0 and stop = ref !out_of_budget in
  while !i < n && not !stop do
    let remaining = s.prm.node_limit - !consumed in
    if remaining <= 0 then begin
      (* The sequential search checks the budget before every node, so
         it would refuse to open any further subtree. *)
      out_of_budget := true;
      stop := true
    end
    else begin
      (match results.(!i) with
      | Some r when r.r_entry = !chain_m -> ()
      | None when !waves > 0 ->
        (* Launched (the first wave starts at task 0 and every wave
           runs to the last task) but lost: recovered below. *)
        ()
      | _ ->
        (* Incumbent is stale (or first visit): every remaining task
           speculated on the wrong entry bound, so relaunch them all
           as one wave under the current chain value. *)
        launch_wave ~from:!i ~entry:!chain_m ~budget:remaining);
      let r =
        match results.(!i) with
        | Some r -> r
        | None ->
          (* Lost: re-run it inline on the calling domain with the exact
             sequential contract, which also makes the result admissible
             by construction.  This sits outside [launch_wave]'s
             injection point, so recovery cannot itself be lost.  Every
             lost task the consumer reaches is counted, whichever domain
             happened to lose it. *)
          incr tasks_lost;
          run_task (state_of 0) ~base_lb ~base_ub tasks.(!i)
            ~entry:!chain_m ~budget:remaining
      in
      if r.r_hit_time then begin
        (* Wall clock ran out mid-subtree: accept what was found;
           exactness — and hence replay determinism — ends here, as it
           does for any time-limited run. *)
        accept r;
        out_of_budget := true;
        stop := true
      end
      else if r.r_hit_nodes && r.r_budget = remaining then begin
        (* Ran with the exact remaining budget and exhausted it: the
           sequential search runs out of nodes inside this very
           subtree, finding the same incumbents on the way. *)
        accept r;
        out_of_budget := true;
        stop := true
      end
      else if r.r_nodes > remaining || r.r_hit_nodes then
        (* Speculated past the real budget (or was cut off below it):
           re-run this one subtree with the exact remaining budget.
           The next iteration consumes it via one of the cases above. *)
        results.(!i) <-
          Some
            (run_task (state_of 0) ~base_lb ~base_ub tasks.(!i)
               ~entry:!chain_m ~budget:remaining)
      else begin
        (* Admissible: byte-for-byte what the sequential search would
           have done with this subtree. *)
        accept r;
        incr i
      end
    end
  done;
  s.best_m <- !chain_m;
  s.best_x <- !chain_x;
  s.out_of_budget <- !out_of_budget;
  s.bound_incomplete <- !bound_incomplete;
  let per_domain =
    Array.map work_of states
  in
  finish ~per_domain ~waves:!waves ~tasks_lost:!tasks_lost
    ~total:(sum_work per_domain)

(* A search handed back by [start]: suspended at its budget check, or a
   pool search that ran out of budget and restarts on resumption.  One
   shot: [used] is set by the first [resume] or [abandon]. *)
type suspended = {
  mutable used : bool;
  go : node_limit:int -> time_limit:float -> outcome * suspended option;
  drop : unit -> unit;
}

(* What the handler in [start] returns: the finished search's outcome,
   or a budget suspension with the outcome a stop there gives. *)
type step =
  | Ended of outcome
  | Paused of outcome * (unit, step) Effect.Deep.continuation

(* Raised into a suspended search to abandon it; unwinding runs the
   search's [Fun.protect] frames, which restore the model's bounds and
   rows. *)
exception Abandoned

let rec start ?(params = default_params) ?warm ?pool ?cutter ?(cut_pool = [])
    model =
  let prob = Model.problem model in
  let base_nrows = Lp_problem.num_constrs prob in
  let sense_mult =
    match Lp_problem.sense prob with
    | Lp_problem.Minimize -> 1.
    | Lp_problem.Maximize -> -1.
  in
  let partner = Hashtbl.create 16 in
  List.iter
    (fun (a, b) ->
      Hashtbl.replace partner a b;
      Hashtbl.replace partner b a)
    (Model.pairs model);
  let is_integer =
    let a = Array.make (Lp_problem.num_vars prob) false in
    List.iter (fun v -> a.(v) <- true) (Model.integer_vars model);
    fun v -> v < Array.length a && a.(v)
  in
  let jobs =
    match pool with Some p -> Pool.jobs p | None -> Int.max 1 params.jobs
  in
  let parallel = jobs > 1 in
  let start_time = Unix.gettimeofday () in
  (* The cut pool never joins the LP, but its rows are globally valid,
     so node propagation may sweep them like any other row. *)
  let prop_rows =
    if not params.propagate then [||]
    else
      Array.of_list
        (List.map
           (fun c ->
             { Lp_problem.cname = c.cut_name; terms = c.cut_terms;
               cmp = Lp_problem.Le; rhs = c.cut_rhs })
           cut_pool)
  in
  let mk_search prob =
    {
      model; prob; ws = Revised.workspace (); prm = params; sense_mult;
      partner; is_integer; prop_rows;
      cutter; base_nrows;
      deadline = start_time +. params.time_limit;
      node_budget = params.node_limit; suspendable = false; capture = None;
      ramp_limit = max_int;
      nodes = 0; lp_solves = 0;
      warm_hits = 0; cold_solves = 0; refactorizations = 0; pivots = 0;
      numerical_recoveries = 0;
      cuts_added = 0; cuts_purged = 0; separation_time = 0.;
      best_m = infinity; best_x = None;
      out_of_budget = false; root_unbounded = false; bound_incomplete = false;
    }
  in
  (* Only a sequential search suspends: a pool search's counts include
     speculation, so it restarts from the root instead. *)
  let s = { (mk_search prob) with suspendable = not parallel } in
  (* Install the warm start if it checks out. *)
  (match warm with
  | Some x
    when Array.length x = Model.num_vars model
         && Model.integral ~tol:int_tol model x
         && Lp_problem.constraint_violation prob x <= 1e-5 ->
    let m =
      sense_mult
      *. (Lp_problem.objective_value prob x +. Model.objective_constant model)
    in
    s.best_m <- m;
    s.best_x <- Some (Array.copy x)
  | Some _ ->
    Log.warn (fun f -> f "warm start rejected (infeasible or non-integral)")
  | None -> ());
  (* Capture hook for the parallel ramp-up: once [ramp_nodes] node LPs
     have been spent, pending subtrees are queued (in DFS order, which is
     the order the sequential search would visit them) instead of
     explored. *)
  let tasks_rev = ref [] and n_tasks = ref 0 in
  if parallel then begin
    s.capture <- Some (fun t -> tasks_rev := t :: !tasks_rev; incr n_tasks);
    s.ramp_limit <- Int.min params.ramp_nodes params.node_limit
  end;
  (* [elapsed] counts the time spent searching: earlier calls' share plus
     the running call's, which began at [phase_start]. *)
  let spent_before = ref 0. and phase_start = ref start_time in
  let finish ~root_bound ~per_domain ~frontier ~waves ~tasks_lost ~total =
    let elapsed = !spent_before +. (Unix.gettimeofday () -. !phase_start) in
    let best = Option.map (fun x -> (x, s.sense_mult *. s.best_m)) s.best_x in
    let status =
      if s.root_unbounded then Unbounded
      else
        match (best, s.out_of_budget || s.bound_incomplete) with
        | Some _, false -> Optimal
        | Some _, true -> Feasible
        | None, false -> Infeasible
        | None, true -> No_solution
    in
    {
      status; best; nodes = total.d_nodes; lp_solves = total.d_lp_solves;
      warm_hits = total.d_warm_hits; cold_solves = total.d_cold_solves;
      refactorizations = total.d_refactorizations; pivots = total.d_pivots;
      numerical_recoveries = total.d_numerical_recoveries;
      cuts_added = total.d_cuts_added; cuts_purged = total.d_cuts_purged;
      separation_time = total.d_separation_time; tasks_lost;
      root_bound; elapsed; per_domain; frontier_tasks = frontier; waves;
    }
  in
  let seq_finish ~root_bound =
    let w = work_of s in
    finish ~root_bound ~per_domain:[| w |] ~frontier:0 ~waves:0 ~tasks_lost:0
      ~total:w
  in
  (* The root bound a stop would report: [nan] until the root LP has
     been solved. *)
  let reported_root = ref nan in
  let search () =
    if out_of_budget s then
      (* Exhausted before the root LP: report without solving anything,
         so nodes and lp_solves stay exact (both 0). *)
      seq_finish ~root_bound:nan
    else begin
      (* Root LP: solved exactly once, reused both for the reported root
         bound and as the root node of the search. *)
      let root_result = solve_node_lp s None ~slot:(Revised.factor_slot ()) in
      let root_bound =
        match root_result with
        | Revised.Optimal { obj; _ } ->
          (sense_mult *. obj) +. (sense_mult *. Model.objective_constant model)
        | Revised.Unbounded | Revised.Iteration_limit -> neg_infinity
        | Revised.Infeasible -> infinity
      in
      if root_bound = infinity && s.best_x = None then
        (* Root LP infeasible and no warm start: the model has no integer
           point.  The root is not counted as a node ([nodes] = 0, one LP
           solve). *)
        seq_finish ~root_bound:nan
      else begin
        reported_root := sense_mult *. root_bound;
        s.nodes <- s.nodes + 1;
        expand s ~depth:0 ~trail:[] ~parent_basis:None
          ~parent_bound:neg_infinity root_result;
        s.capture <- None;
        let tasks = Array.of_list (List.rev !tasks_rev) in
        if Array.length tasks = 0 then
          (* Sequential run, or a ramp-up that exhausted the whole tree. *)
          seq_finish ~root_bound:!reported_root
        else
          solve_frontier s ~pool ~jobs ~mk_search ~tasks
            ~finish:(fun ~per_domain ~waves ~tasks_lost ~total ->
              finish ~root_bound:!reported_root ~per_domain
                ~frontier:!n_tasks ~waves ~tasks_lost ~total)
      end
    end
  in
  let handler =
    {
      Effect.Deep.retc = (fun o -> Ended o);
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Budget_spent ->
            Some
              (fun (k : (a, step) Effect.Deep.continuation) ->
                Paused (seq_finish ~root_bound:!reported_root, k))
          | _ -> None);
    }
  in
  let rec hand_back = function
    | Ended o when parallel && s.out_of_budget ->
      let go ~node_limit ~time_limit =
        start ~params:{ params with node_limit; time_limit } ?warm ?pool
          ?cutter ~cut_pool model
      in
      (o, Some { used = false; go; drop = ignore })
    | Ended o -> (o, None)
    | Paused (o, k) ->
      let go ~node_limit ~time_limit =
        let now = Unix.gettimeofday () in
        spent_before := o.elapsed;
        phase_start := now;
        s.node_budget <- node_limit;
        s.deadline <- now +. time_limit;
        hand_back (Effect.Deep.continue k ())
      and drop () =
        match Effect.Deep.discontinue k Abandoned with
        | (_ : step) -> ()
        | exception Abandoned -> ()
      in
      (o, Some { used = false; go; drop })
  in
  hand_back (Effect.Deep.match_with search () handler)

let use h op =
  if h.used then
    invalid_arg
      ("Branch_bound." ^ op ^ ": the search was already resumed or abandoned");
  h.used <- true

let resume h ~node_limit ~time_limit =
  use h "resume";
  h.go ~node_limit ~time_limit

let abandon h =
  use h "abandon";
  h.drop ()

let solve ?params ?warm ?pool ?cutter ?cut_pool model =
  let outcome, suspended = start ?params ?warm ?pool ?cutter ?cut_pool model in
  Option.iter abandon suspended;
  outcome
