(* Tests for Fp_route: the channel-position graph, the global router
   (shortest-path and weighted), and channel-width adjustment. *)

module Rect = Fp_geometry.Rect
module Point = Fp_geometry.Point
module Module_def = Fp_netlist.Module_def
module Net = Fp_netlist.Net
module Netlist = Fp_netlist.Netlist
module Placement = Fp_core.Placement
module CG = Fp_route.Channel_graph
module GR = Fp_route.Global_router
module Adjust = Fp_route.Adjust

let checkf msg = Alcotest.check (Alcotest.float 1e-5) msg
let rect x y w h = Rect.make ~x ~y ~w ~h

let placed id r =
  { Placement.module_id = id; rect = r; envelope = r; rotated = false }

(* Two modules side by side with a gap between them. *)
let two_block_world () =
  let mods =
    [ Module_def.rigid ~id:0 ~name:"a" ~w:4. ~h:4.;
      Module_def.rigid ~id:1 ~name:"b" ~w:4. ~h:4. ]
  in
  let nets =
    [ Net.make ~name:"n0"
        [ { Net.module_id = 0; side = Net.Right };
          { Net.module_id = 1; side = Net.Left } ] ]
  in
  let nl = Netlist.create ~name:"two" mods nets in
  let pl =
    Placement.empty ~chip_width:12.
    |> Fun.flip Placement.add (placed 0 (rect 0. 0. 4. 4.))
    |> Fun.flip Placement.add (placed 1 (rect 8. 0. 4. 4.))
  in
  (nl, pl)

(* ---------------------------- channel graph ------------------------- *)

let test_graph_builds () =
  let _, pl = two_block_world () in
  let g = CG.build pl in
  Alcotest.(check bool) "nodes exist" true (CG.num_nodes g > 4);
  Alcotest.(check bool) "edges exist" true (CG.num_edges g > 4)

let test_graph_no_nodes_inside_modules () =
  let _, pl = two_block_world () in
  let g = CG.build pl in
  let inside (p : Point.t) =
    List.exists
      (fun (r : Rect.t) ->
        p.Point.x > r.Rect.x +. 1e-6
        && p.Point.x < Rect.x_max r -. 1e-6
        && p.Point.y > r.Rect.y +. 1e-6
        && p.Point.y < Rect.y_max r -. 1e-6)
      (Placement.rects pl)
  in
  for n = 0 to CG.num_nodes g - 1 do
    Alcotest.(check bool) "node outside module interiors" false
      (inside (CG.node_pos g n))
  done

let test_graph_no_edges_through_modules () =
  let _, pl = two_block_world () in
  let g = CG.build pl in
  Array.iter
    (fun (e : CG.edge) ->
      let a = CG.node_pos g e.CG.a and b = CG.node_pos g e.CG.b in
      let mid =
        Point.make (0.5 *. (a.Point.x +. b.Point.x))
          (0.5 *. (a.Point.y +. b.Point.y))
      in
      let blocked =
        List.exists
          (fun (r : Rect.t) ->
            mid.Point.x > r.Rect.x +. 1e-6
            && mid.Point.x < Rect.x_max r -. 1e-6
            && mid.Point.y > r.Rect.y +. 1e-6
            && mid.Point.y < Rect.y_max r -. 1e-6)
          (Placement.rects pl)
      in
      Alcotest.(check bool) "edge avoids silicon" false blocked)
    (CG.edges g)

let test_graph_capacity_positive_in_gap () =
  let _, pl = two_block_world () in
  let g = CG.build pl in
  (* The vertical grid line at x=6 runs through the 4-wide gap; its edges
     should have capacity ~4. *)
  let found = ref false in
  Array.iter
    (fun (e : CG.edge) ->
      if e.CG.orient = CG.V then begin
        let a = CG.node_pos g e.CG.a in
        if Float.abs (a.Point.x -. 4.) < 1e-6 then begin
          found := true;
          Alcotest.(check bool) "gap capacity >= 4" true (e.CG.capacity >= 4.)
        end
      end)
    (CG.edges g);
  Alcotest.(check bool) "saw gap edges" true !found

let test_pin_node_on_correct_side () =
  let _, pl = two_block_world () in
  let g = CG.build pl in
  let p0 = Option.get (Placement.find pl 0) in
  let n = CG.pin_node g p0 Net.Right in
  let pos = CG.node_pos g n in
  checkf "on right edge" 4. pos.Point.x;
  Alcotest.(check bool) "within side extent" true
    (pos.Point.y >= -1e-6 && pos.Point.y <= 4. +. 1e-6)

(* ------------------------------ router ------------------------------ *)

let test_route_simple_net () =
  let nl, pl = two_block_world () in
  let rt = GR.route nl pl in
  Alcotest.(check int) "no failures" 0 rt.GR.num_failed;
  Alcotest.(check int) "one net routed" 1 (List.length rt.GR.routed);
  (* Shortest route from (4, y) to (8, y'): at least the 4-wide gap. *)
  Alcotest.(check bool) "wirelength sane" true
    (rt.GR.total_wirelength >= 4. -. 1e-6 && rt.GR.total_wirelength <= 16.)

let test_route_usage_accounting () =
  let nl, pl = two_block_world () in
  let rt = GR.route nl pl in
  let used = Array.fold_left (fun a u -> a +. u) 0. rt.GR.usage in
  let edges_in_routes =
    List.fold_left (fun a r -> a + Array.length r.GR.edges) 0 rt.GR.routed
  in
  checkf "usage = edges used" (float_of_int edges_in_routes) used

let test_route_multipin_tree () =
  (* Three modules, one 3-pin net: the route must form one connected tree
     touching all three pins. *)
  let mods =
    List.init 3 (fun i ->
        Module_def.rigid ~id:i ~name:(Printf.sprintf "m%d" i) ~w:2. ~h:2.)
  in
  let nets =
    [ Net.make ~name:"n"
        [ { Net.module_id = 0; side = Net.Top };
          { Net.module_id = 1; side = Net.Top };
          { Net.module_id = 2; side = Net.Top } ] ]
  in
  let nl = Netlist.create ~name:"three" mods nets in
  let pl =
    Placement.empty ~chip_width:10.
    |> Fun.flip Placement.add (placed 0 (rect 0. 0. 2. 2.))
    |> Fun.flip Placement.add (placed 1 (rect 4. 0. 2. 2.))
    |> Fun.flip Placement.add (placed 2 (rect 8. 0. 2. 2.))
  in
  let rt = GR.route nl pl in
  Alcotest.(check int) "routed" 1 (List.length rt.GR.routed);
  Alcotest.(check int) "no failures" 0 rt.GR.num_failed;
  (* Spanning 0..10 near the top edge costs at least ~8 (pin to pin). *)
  Alcotest.(check bool) "tree length sane" true (rt.GR.total_wirelength >= 8. -. 1e-6)

let congested_world () =
  (* A narrow 1-unit canyon between two tall modules, and many nets that
     want to cross it vertically. *)
  let mods =
    [ Module_def.rigid ~id:0 ~name:"a" ~w:5. ~h:8.;
      Module_def.rigid ~id:1 ~name:"b" ~w:5. ~h:8.;
      Module_def.rigid ~id:2 ~name:"s" ~w:2. ~h:1.;
      Module_def.rigid ~id:3 ~name:"t" ~w:2. ~h:1. ]
  in
  let nets =
    List.init 6 (fun i ->
        Net.make ~name:(Printf.sprintf "n%d" i)
          [ { Net.module_id = 2; side = Net.Top };
            { Net.module_id = 3; side = Net.Bottom } ])
  in
  let nl = Netlist.create ~name:"canyon" mods nets in
  let pl =
    Placement.empty ~chip_width:11.
    |> Fun.flip Placement.add (placed 0 (rect 0. 1. 5. 8.))
    |> Fun.flip Placement.add (placed 1 (rect 6. 1. 5. 8.))
    |> Fun.flip Placement.add (placed 2 (rect 3. 0. 2. 1.))
    |> Fun.flip Placement.add (placed 3 (rect 3. 9. 2. 1.))
  in
  (nl, pl)

let test_weighted_spreads_load () =
  let nl, pl = congested_world () in
  let plain = GR.route ~algorithm:GR.Shortest_path nl pl in
  let weighted =
    GR.route ~algorithm:(GR.Weighted { penalty = 5. }) nl pl
  in
  Alcotest.(check int) "plain no failures" 0 plain.GR.num_failed;
  Alcotest.(check int) "weighted no failures" 0 weighted.GR.num_failed;
  (* The weighted router may pay wirelength to avoid overflow; it should
     never overflow more than the oblivious one. *)
  Alcotest.(check bool) "weighted overflow <= plain overflow" true
    (weighted.GR.max_overflow <= plain.GR.max_overflow +. 1e-6)

let test_critical_nets_first () =
  (* One critical and one ordinary net competing for the same channel:
     the critical one is routed first regardless of name order. *)
  let mods =
    [ Module_def.rigid ~id:0 ~name:"a" ~w:2. ~h:2.;
      Module_def.rigid ~id:1 ~name:"b" ~w:2. ~h:2. ]
  in
  let nets =
    [ Net.make ~name:"a_plain"
        [ { Net.module_id = 0; side = Net.Right };
          { Net.module_id = 1; side = Net.Left } ];
      Net.make ~name:"z_critical" ~criticality:0.9
        [ { Net.module_id = 0; side = Net.Right };
          { Net.module_id = 1; side = Net.Left } ] ]
  in
  let nl = Netlist.create ~name:"crit" mods nets in
  let pl =
    Placement.empty ~chip_width:8.
    |> Fun.flip Placement.add (placed 0 (rect 0. 0. 2. 2.))
    |> Fun.flip Placement.add (placed 1 (rect 6. 0. 2. 2.))
  in
  let rt = GR.route nl pl in
  match rt.GR.routed with
  | first :: _ ->
    Alcotest.(check string) "critical routed first" "z_critical"
      first.GR.net.Net.name
  | [] -> Alcotest.fail "nothing routed"

let test_route_empty_netlist () =
  let mods = [ Module_def.rigid ~id:0 ~name:"a" ~w:2. ~h:2. ] in
  let nl = Netlist.create ~name:"lonely" mods [] in
  let pl = Placement.add (Placement.empty ~chip_width:4.)
      (placed 0 (rect 0. 0. 2. 2.)) in
  let rt = GR.route nl pl in
  checkf "no wire" 0. rt.GR.total_wirelength;
  Alcotest.(check int) "no routes" 0 (List.length rt.GR.routed)

let test_route_deterministic () =
  let nl, pl = congested_world () in
  let a = GR.route ~algorithm:(GR.Weighted { penalty = 2. }) nl pl in
  let b = GR.route ~algorithm:(GR.Weighted { penalty = 2. }) nl pl in
  checkf "same wirelength" a.GR.total_wirelength b.GR.total_wirelength;
  checkf "same overflow" a.GR.overflow_total b.GR.overflow_total

(* ------------------------------ adjust ------------------------------ *)

let test_adjust_no_overflow_no_growth () =
  let nl, pl = two_block_world () in
  let rt = GR.route nl pl in
  let rep = Adjust.compute rt ~pitch_h:1. ~pitch_v:1. in
  checkf "no extra width" 0. rep.Adjust.extra_width;
  checkf "no extra height" 0. rep.Adjust.extra_height;
  checkf "area = base area" (rep.Adjust.base_width *. rep.Adjust.base_height)
    rep.Adjust.final_area

let test_adjust_congestion_grows_chip () =
  let nl, pl = congested_world () in
  let rt = GR.route ~algorithm:GR.Shortest_path ~pitch_v:1. ~pitch_h:1. nl pl in
  let rep = Adjust.compute rt ~pitch_h:1. ~pitch_v:1. in
  (* Six wires through a 1-wide canyon must force the chip to grow. *)
  Alcotest.(check bool) "chip grew" true
    (rep.Adjust.final_area > (rep.Adjust.base_width *. rep.Adjust.base_height) +. 1e-6)

let test_adjust_dimensions_consistent () =
  let nl, pl = congested_world () in
  let rt = GR.route nl pl in
  let rep = Adjust.compute rt ~pitch_h:1. ~pitch_v:1. in
  checkf "final w" (rep.Adjust.base_width +. rep.Adjust.extra_width)
    rep.Adjust.final_width;
  checkf "final h" (rep.Adjust.base_height +. rep.Adjust.extra_height)
    rep.Adjust.final_height;
  checkf "area" (rep.Adjust.final_width *. rep.Adjust.final_height)
    rep.Adjust.final_area

let () =
  Alcotest.run "fp_route"
    [
      ( "channel_graph",
        [
          Alcotest.test_case "builds" `Quick test_graph_builds;
          Alcotest.test_case "no nodes inside modules" `Quick
            test_graph_no_nodes_inside_modules;
          Alcotest.test_case "no edges through modules" `Quick
            test_graph_no_edges_through_modules;
          Alcotest.test_case "gap capacity" `Quick
            test_graph_capacity_positive_in_gap;
          Alcotest.test_case "pin node" `Quick test_pin_node_on_correct_side;
        ] );
      ( "router",
        [
          Alcotest.test_case "simple net" `Quick test_route_simple_net;
          Alcotest.test_case "usage accounting" `Quick test_route_usage_accounting;
          Alcotest.test_case "multipin tree" `Quick test_route_multipin_tree;
          Alcotest.test_case "weighted spreads load" `Quick
            test_weighted_spreads_load;
          Alcotest.test_case "critical first" `Quick test_critical_nets_first;
          Alcotest.test_case "empty netlist" `Quick test_route_empty_netlist;
          Alcotest.test_case "deterministic" `Quick test_route_deterministic;
        ] );
      ( "adjust",
        [
          Alcotest.test_case "no overflow no growth" `Quick
            test_adjust_no_overflow_no_growth;
          Alcotest.test_case "congestion grows chip" `Quick
            test_adjust_congestion_grows_chip;
          Alcotest.test_case "dimensions consistent" `Quick
            test_adjust_dimensions_consistent;
        ] );
    ]
