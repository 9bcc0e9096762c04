module Net = Fp_netlist.Net
module Netlist = Fp_netlist.Netlist
module Placement = Fp_core.Placement
module Heap = Fp_util.Heap
module Tol = Fp_geometry.Tol

type algorithm = Shortest_path | Weighted of { penalty : float }

type routed_net = {
  net : Net.t;
  edges : int array;
  wirelength : float;
}

type t = {
  graph : Channel_graph.t;
  routed : routed_net list;
  usage : float array;
  total_wirelength : float;
  overflow_total : float;
  max_overflow : float;
  num_failed : int;
}

let edge_cost algorithm usage (e : Channel_graph.edge) idx =
  match algorithm with
  | Shortest_path -> e.Channel_graph.length
  | Weighted { penalty } ->
    let after = usage.(idx) +. 1. in
    let over =
      if Tol.leq e.Channel_graph.capacity 0. then after
      else Float.max 0. (after -. e.Channel_graph.capacity)
           /. Float.max 1. e.Channel_graph.capacity
    in
    e.Channel_graph.length *. (1. +. (penalty *. over))

(* Adjacency of the channel graph: [(neighbor, edge index)] pairs per
   node.  Built per [route] call and dropped with it, so a kept routing
   result does not carry it. *)
let adjacency graph =
  let adj = Array.make (Channel_graph.num_nodes graph) [] in
  Array.iteri
    (fun i (e : Channel_graph.edge) ->
      let a = e.Channel_graph.a and b = e.Channel_graph.b in
      adj.(a) <- (b, i) :: adj.(a);
      adj.(b) <- (a, i) :: adj.(b))
    (Channel_graph.edges graph);
  adj

(* Dijkstra from a set of sources to the nearest target.  Returns the
   edge list of the path, or None when unreachable. *)
let shortest_path graph adj algorithm usage ~sources ~target =
  let n = Channel_graph.num_nodes graph in
  let dist = Array.make n infinity in
  let via = Array.make n (-1) in      (* edge used to arrive *)
  let from = Array.make n (-1) in     (* predecessor node *)
  let heap = Heap.create () in
  List.iter
    (fun s ->
      if Tol.gt dist.(s) 0. then begin
        dist.(s) <- 0.;
        Heap.push heap 0. s
      end)
    sources;
  let rec walk () =
    match Heap.pop heap with
    | None -> None
    | Some (d, u) ->
      if Tol.gt ~tol:1e-12 d dist.(u) then walk () (* stale entry *)
      else if u = target then Some u
      else begin
        List.iter
          (fun (v, ei) ->
            let e = Channel_graph.edge_at graph ei in
            let nd = d +. edge_cost algorithm usage e ei in
            if Tol.lt ~tol:1e-12 nd dist.(v) then begin
              dist.(v) <- nd;
              via.(v) <- ei;
              from.(v) <- u;
              Heap.push heap nd v
            end)
          adj.(u);
        walk ()
      end
  in
  match walk () with
  | None -> None
  | Some _ ->
    let rec collect u acc =
      if via.(u) < 0 then acc
      else collect from.(u) (via.(u) :: acc)
    in
    Some (collect target [])

(* Route one net as a tree: connect each pin to the partial tree via the
   cheapest path from any tree node. *)
let route_net graph adj algorithm usage pl net =
  let pins =
    List.filter_map
      (fun p ->
        Option.map
          (fun placed -> Channel_graph.pin_node graph placed p.Net.side)
          (Placement.find pl p.Net.module_id))
      net.Net.pins
    |> List.sort_uniq compare
  in
  match pins with
  | [] | [ _ ] -> Some { net; edges = [||]; wirelength = 0. }
  | first :: rest ->
    let tree_nodes = ref [ first ] in
    let tree_edges = ref [] in
    let ok = ref true in
    List.iter
      (fun target ->
        if !ok && not (List.mem target !tree_nodes) then
          match
            shortest_path graph adj algorithm usage ~sources:!tree_nodes
              ~target
          with
          | None -> ok := false
          | Some path ->
            List.iter
              (fun ei ->
                if not (List.mem ei !tree_edges) then begin
                  tree_edges := ei :: !tree_edges;
                  usage.(ei) <- usage.(ei) +. 1.;
                  let e = Channel_graph.edge_at graph ei in
                  tree_nodes := e.Channel_graph.a :: e.Channel_graph.b
                                :: !tree_nodes
                end)
              path;
            tree_nodes := target :: !tree_nodes)
      rest;
    if not !ok then None
    else
      let wirelength =
        List.fold_left
          (fun acc ei ->
            acc +. (Channel_graph.edge_at graph ei).Channel_graph.length)
          0. !tree_edges
      in
      Some { net; edges = Array.of_list !tree_edges; wirelength }

let route ?(algorithm = Shortest_path) ?(pitch_h = 1.0) ?(pitch_v = 1.0) nl pl =
  let graph = Channel_graph.build ~pitch_h ~pitch_v pl in
  let adj = adjacency graph in
  let usage = Array.make (Channel_graph.num_edges graph) 0. in
  (* Timing-critical nets first (YOU89), then heavier nets. *)
  let nets =
    List.sort
      (fun a b ->
        match compare b.Net.criticality a.Net.criticality with
        | 0 -> (
          match compare (Net.degree b) (Net.degree a) with
          | 0 -> compare a.Net.name b.Net.name
          | c -> c)
        | c -> c)
      (Netlist.nets nl)
  in
  let routed = ref [] and failed = ref 0 in
  List.iter
    (fun net ->
      match route_net graph adj algorithm usage pl net with
      | Some r -> routed := r :: !routed
      | None -> incr failed)
    nets;
  let routed = List.rev !routed in
  let total_wirelength =
    List.fold_left (fun a r -> a +. r.wirelength) 0. routed
  in
  let overflow_total = ref 0. and max_overflow = ref 0. in
  Array.iteri
    (fun i u ->
      let e = Channel_graph.edge_at graph i in
      let over = Float.max 0. (u -. e.Channel_graph.capacity) in
      overflow_total := !overflow_total +. over;
      if over > !max_overflow then max_overflow := over)
    usage;
  {
    graph; routed; usage; total_wirelength;
    overflow_total = !overflow_total; max_overflow = !max_overflow;
    num_failed = !failed;
  }

let wirelength_of t = t.total_wirelength
