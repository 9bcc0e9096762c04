(** The Wong–Liu slicing annealer as a {!Solver.t}.

    Scenario mapping: [seed] replaces the annealer's seed, [outline] is
    passed through verbatim (the annealer realizes at bounded width and
    penalizes height excess for [Fixed] outlines), [wire_weight] sets
    the HPWL term, and the context deadline truncates the schedule
    cooperatively — the best plan seen so far is returned with a
    [Deadline_truncated] degradation.  With a default scenario the
    engine is bit-identical to calling {!Fp_slicing.Anneal.run}
    directly with the same config. *)

val make : ?config:Fp_slicing.Anneal.config -> unit -> Solver.t
(** [config] defaults to {!Fp_slicing.Anneal.default_config}; the
    scenario's [seed], [outline] and [wire_weight] overlay it at solve
    time. *)
