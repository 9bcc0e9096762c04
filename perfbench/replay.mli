(** Replay of committed augmentation steps, from outside the engine.

    From each captured step's model ({!Fp_core.Formulation.built}: its
    items, fixed rectangles, chip width and height bound) the replay
    re-times the layers the step went through: the covering of the
    partial plan's skyline (coarsened to the configured maximum), the
    warm-start packing, a fresh formulation build, the root LP
    relaxation, and the branch-and-bound search at jobs=1 and on the
    pool.  A step that was retried is replayed attempt
    by attempt, each with the node budget the engine gave it (the base
    budget times the escalation factor raised to the retry number).

    A replay must reproduce the step exactly: the committed attempt's
    node, LP and pivot counts must equal the step's
    {!Fp_core.Augment.step_stat}, earlier attempts must fall short of
    their budget as the originals did, and the jobs=2 search must return
    the jobs=1 result.  Any difference is listed in [mismatches]; the
    step's layer times are then not to be used. *)

type solve = {
  outcome : Fp_milp.Branch_bound.outcome;
  seconds : float;
  alloc_bytes : float;  (** allocated on the calling domain *)
}

type attempt = {
  covering_s : float;
  warm_s : float;
  build_s : float;
  seq : solve;  (** jobs = 1 *)
  par : solve option;
      (** on the pool; for the committed attempt, and for every attempt
          of a workload that plans on the pool *)
}

type step = {
  index : int;  (** 1-based *)
  capture : Workload.capture;
  attempts : attempt list;  (** in order; the last one was committed *)
  root_solve_s : float;
  lint_s : float;
      (** [Fp_check.Lint.formulation] on the committed model; [0] for a
          checking workload, whose plan already lints every model *)
  mismatches : string list;
}

val run :
  ?trace:Trace.t -> pool:Fp_util.Pool.t -> Workload.t ->
  Workload.capture list -> step list
(** Replay every captured step in order.  [pool] runs the parallel
    searches. *)

val used : Workload.t -> attempt -> solve
(** The search the workload's own plan ran: on the pool for a parallel
    workload, at jobs=1 otherwise. *)
