(** Channel position graph over a placed floorplan — paper section 3.2.

    "Our global router is graph based.  It uses the channel position
    graph obtained from the floorplan produced by the integer programming
    step and assigns a preliminary capacity to each edge."

    We realize the channel graph as the Hanan grid induced by the silicon
    rectangle boundaries plus the chip boundary: nodes are grid
    intersections not strictly inside any module, edges join neighbouring
    nodes whose connecting segment does not cross module silicon.  Each
    edge carries a {e preliminary capacity}: the number of routing tracks
    that fit in the free gap perpendicular to the edge, at the edge's
    location, given the metal pitch for that direction. *)

type node = int

type orient = H | V

type edge = {
  a : node;
  b : node;
  length : float;
  capacity : float;  (** tracks that fit the hosting channel *)
  orient : orient;
}

type t

val build :
  ?pitch_h:float -> ?pitch_v:float -> Fp_core.Placement.t -> t
(** Build the channel graph for a placement (default pitches 1.0).
    Uses silicon rectangles as blockages; envelope margins and inter-module
    gaps are routable. *)

val num_nodes : t -> int
val num_edges : t -> int
val node_pos : t -> node -> Fp_geometry.Point.t
val edges : t -> edge array
val edge_at : t -> int -> edge

val pin_node : t -> Fp_core.Placement.placed -> Fp_netlist.Net.side -> node
(** Grid node hosting a module's generalized pin: the node on the given
    silicon side nearest to the side midpoint.  Always exists because
    module corners are grid points. *)

val pp_stats : Format.formatter -> t -> unit
