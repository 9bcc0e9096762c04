(** Floorplan optimization with a given topology — paper section 2.5.

    "When the mixed integer programming formulation is applied to this
    problem, it results in elimination of all integer variables": once the
    relative position of every module pair is known, exactly one
    non-overlap inequality per pair remains and the model is a pure LP.

    The topology is read off an existing placement: for each pair of
    envelopes, the satisfied relation (left / right / below / above)
    becomes a hard constraint; module positions — and the widths of
    flexible modules — are then re-optimized to minimize chip height at
    fixed width.  The result never raises the height: when the LP has no
    optimum the input placement is returned unchanged.

    The input placement is not always feasible for the LP.  A flexible
    module's linearized height ({!Formulation.linearization}) can exceed
    its placed envelope height, so a below/above row with no slack is
    violated at the input point.  For example, on the bundled ami33
    planned with the [tight] formulation at 200 nodes per step, the LP
    is infeasible for that reason (the rows above [bk26] and [bk30] are
    over by 2.08 and 1.15), and [optimize] returns its input. *)

type stats = {
  num_vars : int;
  num_constraints : int;
  num_integer_vars : int;  (** always 0 — the section's point *)
  height_before : float;
  height_after : float;
}

val optimize :
  ?linearization:Formulation.linearization ->
  Fp_netlist.Netlist.t ->
  Placement.t ->
  Placement.t * stats
(** Re-optimize the placement.  Rigid modules keep their placed
    orientation; flexible modules may re-shape within their aspect
    window.  Envelope margins are preserved exactly as placed.
    @raise Invalid_argument if the placement is invalid (overlapping
    envelopes) or if some module of the netlist is unplaced. *)
