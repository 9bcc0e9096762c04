(** Simulated-annealing slicing floorplanner — the Wong–Liu (DAC'86)
    baseline the paper's related-work section contrasts with.

    Search space: normalized Polish expressions ({!Polish}); neighbour
    moves M1 (swap adjacent operands), M2 (complement an operator chain),
    M3 (swap an adjacent operand/operator pair); cost: bounding-box area
    of the best realization plus an optional wirelength term; schedule:
    geometric cooling with an adaptive initial temperature.

    Deterministic for a fixed seed. *)

type config = {
  seed : int;
  cooling : float;          (** temperature ratio per stage (default 0.88) *)
  moves_per_stage : int;    (** attempted moves per temperature; scaled by
                                the module count internally *)
  stages : int;             (** maximum cooling stages (default 60) *)
  wire_weight : float;      (** weight of the HPWL term (default 0.) *)
  outline : Fp_core.Outline.t;
      (** [Free] (default) minimizes bounding-box area; [Max_width w]
          realizes for minimum height at bounded width, like the MILP's
          fixed-width chip; [Fixed] additionally penalizes height excess
          in the cost so the search is driven inside the outline *)
  time_limit : float option;
      (** wall-clock budget in seconds (default [None]); checked at each
          cooling-stage boundary, and the best plan so far is returned
          with [stats.truncated] set *)
  flex_samples : int;       (** shape samples per flexible module *)
}

val default_config : config

type stats = {
  iterations : int;
  accepted : int;
  best_cost : float;
  initial_cost : float;
  elapsed : float;
  truncated : bool;
      (** the run stopped early on its [time_limit]; the returned plan
          is the best seen, not the schedule's endpoint *)
}

val run :
  ?config:config ->
  Fp_netlist.Netlist.t ->
  Fp_core.Placement.t * stats
(** Floorplan an instance.  The returned placement uses the realized
    chip width as [chip_width] and is always valid (slicing floorplans
    cannot overlap).  Deadline checks consume no randomness: for a
    fixed seed without truncation the result is bit-identical across
    [time_limit] settings.
    @raise Invalid_argument on an empty instance. *)
