(** Global routing over the channel graph — paper section 3.2.

    "It uses the shortest path algorithm to find a route between two
    generalized pins.  It also uses a penalty function for utilization of
    a channel beyond its preliminary capacity.  Nets with the tight
    timing requirements are routed first."

    Multi-pin nets are decomposed Prim-style: each further pin connects
    to the nearest node already on the net's tree, via Dijkstra on the
    channel graph.  Two edge-cost modes reproduce the paper's two
    algorithms (Table 3):

    - [Shortest_path]: cost = geometric length;
    - [Weighted { penalty }]: cost = length × (1 + penalty × overflow)
      where overflow is how far past its preliminary capacity the edge
      would go if this wire were added. *)

type algorithm = Shortest_path | Weighted of { penalty : float }

type routed_net = {
  net : Fp_netlist.Net.t;
  edges : int array;      (** channel-graph edge indices used *)
  wirelength : float;
}

type t = {
  graph : Channel_graph.t;
  routed : routed_net list;
  usage : float array;          (** wires per edge, same index as edges *)
  total_wirelength : float;
  overflow_total : float;
      (** sum over edges of max(0, usage - capacity) *)
  max_overflow : float;
  num_failed : int;             (** nets with unreachable pins (should be 0) *)
}

val route :
  ?algorithm:algorithm ->
  ?pitch_h:float ->
  ?pitch_v:float ->
  Fp_netlist.Netlist.t ->
  Fp_core.Placement.t ->
  t
(** Route every net of the instance over the placement.  Nets are
    processed in decreasing criticality (ties: more pins first, then
    name), so timing-critical nets see uncongested channels — the
    paper's YOU89 policy. *)

val wirelength_of : t -> float
