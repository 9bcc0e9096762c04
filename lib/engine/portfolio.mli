(** Race several {!Solver.t}s on one scenario and keep the best plan.

    The racer runs every selected engine concurrently, one engine per
    task on its own {!Fp_util.Pool} (created for the race, [jobs]
    clamped to the engine count), each with a private RNG stream and
    all sharing one absolute deadline derived from the scenario's
    [time_budget].

    Every engine runs to its own completion (or the shared deadline)
    and the winner is chosen afterwards: the lowest
    {!Solver.stats.objective} among certified outcomes, ties broken by
    engine order.  Without a [time_budget] the whole race is
    deterministic for a fixed seed, {e including across [jobs] values}:
    winner selection only reads per-engine results that are themselves
    deterministic.

    An engine that raises is recorded as an [Engine_failed] degradation
    on its entry and the race continues; the racer itself fails only
    when {e no} engine produced a certified plan. *)

type entry = { solver_name : string; outcome : Solver.outcome }

type report = {
  winner : entry option;
      (** the chosen certified outcome; [None] when no engine certified *)
  entries : entry list;  (** in engine order, one per selected engine *)
  wall_time : float;
      (** seconds for the whole race; each entry's own
          {!Solver.stats.wall_time} covers that engine only *)
}

val race :
  ?jobs:int ->
  engines:Solver.t list ->
  scenario:Solver.scenario ->
  Fp_netlist.Netlist.t ->
  report
(** [jobs] defaults to the engine count (each engine gets a worker);
    values beyond the engine count are clamped down, [jobs = 1] runs
    the engines sequentially in order.
    @raise Invalid_argument on an empty engine list. *)

val degradations_of : report -> Fp_core.Degradation.t list
(** The winning entry's degradations (empty when there is no winner) —
    the input for {!Fp_core.Degradation.exit_code} on portfolio runs.
    The exit code reflects the quality of the plan actually returned,
    not of the losing engines; their records stay visible in
    [entries] and the bench JSON. *)
