(** Branch-and-bound solver for 0–1 mixed integer linear programs.

    This plays the role LINDO plays in the paper (section 3): an exact
    solver for the small MILP subproblems produced by successive
    augmentation.  Depth-first search over LP relaxations solved by the
    bounded-variable revised simplex {!Fp_lp.Revised}, with

    - basis warm starting: each child node re-solves from its parent's
      optimal basis via the dual simplex (branching only flips variable
      bounds, which preserves dual feasibility), with a cold solve as
      fallback on singular or stale bases;
    - 4-way branching on declared disjunction pairs (the paper's
      [(x_ij, y_ij)] "which side is module i on" variables), children
      ordered by proximity to the LP relaxation point;
    - floor/ceil branching on remaining fractional integers, nearest side
      first;
    - warm starting from a caller-supplied feasible point (the floorplan
      layer seeds it with a bottom-left skyline placement), so pruning is
      effective from the first node;
    - node- and time-budgets: when exhausted the best incumbent is
      returned with status [Feasible], mirroring how LINDO was used on a
      4-MIPS Apollo workstation; {!start} also hands back the search, so
      a retry under a bigger budget continues it ({!resume});
    - optional multi-domain search ([jobs > 1]): a short sequential
      ramp-up captures the unexplored frontier, whose subtrees are then
      explored on a {!Fp_util.Pool} of domains, each with its own copy
      of the problem and its own simplex state.

    The search is deterministic given the model and parameters: the
    parallel search replays the sequential one exactly (same incumbent,
    same node count, independent of domain scheduling), at the cost of
    re-exploring subtrees whose speculative pruning bound turned out
    stale.  See [docs/parallel.md].  A value within [1e-6] of an integer
    counts as integral.  New incumbents are reported at [Logs] debug
    level on the ["fp.milp"] source.

    Fault sites (for {!Fp_util.Fault}, exercised by the resilience
    tests): ["branch_bound.budget"] forces the budget check to report
    exhaustion, exercising the anytime path (best incumbent — usually
    the caller's warm start — returned as [Feasible]/[No_solution]);
    ["branch_bound.task_loss"] drops a frontier task's result, which the
    consume loop recovers by re-running the subtree inline under the
    exact sequential contract (counted in [tasks_lost]).  See
    [docs/robustness.md]. *)

type branch_rule =
  | Most_fractional
      (** branch on the integer variable farthest from integrality *)
  | First_fractional
      (** branch on the first fractional integer variable in declaration
          order — lets the modeler encode "decide the big modules first"
          by declaration order *)

type cut = {
  cut_name : string;
  cut_terms : (float * int) list;
  cut_rhs : float;
}
(** A globally valid inequality [cut_terms . x <= cut_rhs] over the
    model's structural variables.  "Globally valid" is a proof
    obligation on the producer: every integer-feasible point of the
    {e whole} model must satisfy it, because a cut appended at a node
    survives into the node's subtree and, via frontier tasks, onto
    other domains. *)

type cutter = float array -> cut list
(** Separation callback: given the node's LP-relaxation point (structural
    variables, dense), return violated valid inequalities, most violated
    first.  Must be deterministic — a pure function of the point — or
    parallel runs lose bit-identical replay.  Called up to
    {!max_cut_rounds} times per node; the solver appends at most
    {!cuts_per_round} of the returned rows per round. *)

val max_cut_rounds : int
(** Separation rounds per node: [4]. *)

val cuts_per_round : int
(** Cap on rows appended per separation round: [16]. *)

type params = {
  node_limit : int;        (** maximum branch-and-bound nodes (default 200_000) *)
  time_limit : float;      (** seconds (default 120.) *)
  min_improvement : float; (** required objective improvement before a node
                               survives pruning; raising it trades quality
                               for speed (default 1e-7) *)
  branch_rule : branch_rule;  (** default [Most_fractional] *)
  warm_lp : bool;
      (** warm-start child LPs from the parent basis (default [true]);
          [false] forces a cold solve at every node — used by the
          warm-start ablation bench *)
  jobs : int;
      (** number of domains to search on (default [1], fully
          sequential).  Ignored when a [pool] is passed to {!solve} —
          the pool's size wins. *)
  ramp_nodes : int;
      (** nodes explored sequentially before the frontier is handed to
          the pool (default [32]).  Larger values seed more, smaller
          tasks; only meaningful when [jobs > 1]. *)
  propagate : bool;
      (** run {!Fp_lp.Lp_problem.propagate_bounds} (interval propagation
          with integer snapping) at every node before its LP (default
          [false]).  A child whose propagation empties an interval or
          whose objective box bound already meets the cutoff is pruned
          without counting as a node or solving an LP — on big-M
          disjunction models most infeasible branch combinations die
          here.  Propagated bounds ride the task trail, so parallel
          replay stays bit-identical.  Enabled by the [Tight] / [Cuts]
          formulation modes. *)
}

val default_params : params

type status =
  | Optimal       (** search completed; incumbent is proven optimal *)
  | Feasible      (** budget exhausted (or a subtree was abandoned without
                      a bound); best incumbent returned *)
  | Infeasible    (** no integer-feasible point exists *)
  | Unbounded     (** LP relaxation unbounded at the root *)
  | No_solution   (** budget exhausted before any incumbent was found *)

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
(** Per-domain slice of the search-effort counters.  This counts
    {e all} work a domain performed, including speculation that was
    later discarded by the replay — the honest parallel cost, not the
    sequential-equivalent cost. *)

type outcome = {
  status : status;
  best : (float array * float) option;
      (** incumbent point and objective (original sense, constant
          included) *)
  nodes : int;
      (** nodes whose LP relaxation was evaluated; always equal to
          [lp_solves] (cut-round re-solves are not node LPs and count
          only toward [pivots] / [refactorizations]) *)
  lp_solves : int;
  warm_hits : int;
      (** node LPs answered from the parent basis (dual-simplex path) *)
  cold_solves : int;
      (** node LPs solved from scratch, including warm-start fallbacks *)
  refactorizations : int;
      (** basis refactorizations across all node LPs *)
  pivots : int;
      (** total simplex pivots (primal + dual) across all node LPs *)
  numerical_recoveries : int;
      (** node LPs that needed a recovery path: a requested warm start
          that fell back to a cold solve (singular or stale basis), or
          an LP that hit its own iteration limit and was handled via the
          parent-bound retreat.  Nonzero values mean the answer is still
          trustworthy but the numerics were stressed. *)
  cuts_added : int;
      (** rows appended by separation rounds across all nodes ([0]
          without a [cutter]) *)
  cuts_purged : int;
      (** appended rows removed again as slack before branching — cut
          aging that keeps the LU factorization small *)
  separation_time : float;
      (** seconds spent inside the [cutter] callback *)
  tasks_lost : int;
      (** frontier-task results that vanished (worker failure or
          injected fault) and were re-run inline; [0] in healthy runs *)
  root_bound : float;
      (** LP-relaxation bound at the root, original sense *)
  elapsed : float;
  per_domain : domain_work array;
      (** one entry per worker domain (entry [0] is the calling domain,
          which also performed the ramp-up); a single entry for
          sequential runs *)
  frontier_tasks : int;
      (** subtrees captured by the ramp-up and handed to the pool; [0]
          for sequential runs and for trees the ramp-up exhausted *)
  waves : int;
      (** speculative parallel waves launched; [1] when no task's
          pruning bound went stale, [0] for sequential runs *)
}

val solve :
  ?params:params -> ?warm:float array -> ?pool:Fp_util.Pool.t ->
  ?cutter:cutter -> ?cut_pool:cut list -> Model.t ->
  outcome
(** [solve model] runs the search.  [warm], when given, must be feasible
    and integral (checked; silently ignored otherwise — a bad warm start
    must never corrupt the search).

    [cutter], when given, runs a cut-management loop at every node that
    survives the bound prune: up to {!max_cut_rounds} rounds of
    separation against the relaxation point, each appending at most
    {!cuts_per_round} violated rows and re-solving warm from the current
    basis (see {!Fp_lp.Revised.extend_snapshot}); rows left slack at the
    final point are purged again before branching (cut aging), and the
    survivors are inherited — and eventually truncated — under strict
    stack discipline, so frontier tasks replay bit-identically on other
    domains.

    [cut_pool], when given together with [params.propagate], is a set of
    globally valid inequalities that participate in node-entry interval
    propagation {e without} ever being LP rows — the lazy pool's pruning
    power at zero pricing cost.  Typically the same candidate list the
    [cutter] separates from.

    [pool], when given, supplies the worker domains for [jobs > 1] (and
    overrides [params.jobs] with its size); otherwise a private pool is
    created and shut down around the frontier phase.  Passing a shared
    pool amortizes domain spawning across many [solve] calls — the
    successive-augmentation driver does exactly that.  The caller must
    not invoke [solve] with the same pool from two domains at once (see
    {!Fp_util.Pool.run} on nesting).

    [solve] is {!start} followed by {!abandon} of a suspended search, so
    the model is at rest when it returns. *)

(** {2 Resumable searches}

    A depth-first search stopped by its node budget has already visited
    exactly the nodes a search with a bigger budget visits first.
    {!start} keeps such a search instead of discarding it, so a retry
    can continue where the budget ran out rather than start again from
    the root. *)

type suspended
(** A search that ran out of budget, held for {!resume} or {!abandon}.
    One shot: exactly one of the two must be called on it, once.  Until
    then the model is not at rest — a sequential search keeps its
    branching bounds and cut rows applied — so the model must not be
    read or solved again before the handle is used. *)

val start :
  ?params:params -> ?warm:float array -> ?pool:Fp_util.Pool.t ->
  ?cutter:cutter -> ?cut_pool:cut list -> Model.t ->
  outcome * suspended option
(** [start model] runs the search {!solve} runs and returns its outcome.
    When the node or time budget ran out, it also returns a handle on
    the search: a sequential search ([jobs = 1]) suspends at the budget
    check of the node it would have opened next; a search on a pool
    ([jobs > 1]) has finished and will re-run from its root.  A search
    that ended on its own (any status not caused by the budget) returns
    [None]: a bigger budget cannot change it.

    The handle resides in memory only and may be used from another
    domain than the one that started the search, but never from two at
    once. *)

val resume :
  suspended -> node_limit:int -> time_limit:float -> outcome * suspended option
(** [resume h ~node_limit ~time_limit] continues the search under new
    limits and returns what {!start} returns.  [node_limit] counts from
    the root, as in {!params}; [time_limit] counts from the call.  For a
    sequential search the outcome equals that of a fresh {!solve} with
    the new limits — the same [status], [best], [root_bound] and counts
    ([nodes], [lp_solves], [warm_hits], [cold_solves],
    [refactorizations], [pivots], ...) — whenever [node_limit] is not
    below the suspended outcome's [nodes] and no time limit or fault
    intervened; [elapsed] adds up the time spent searching in every
    call.  A pool search is solved afresh with the new limits.
    @raise Invalid_argument if [h] was already resumed or abandoned. *)

val abandon : suspended -> unit
(** [abandon h] ends the search without searching further.  Unwinding
    it restores every variable bound and removes every cut row the
    search applied, so the model is as it was before {!start}.
    @raise Invalid_argument if [h] was already resumed or abandoned. *)

