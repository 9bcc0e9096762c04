module Rect = Fp_geometry.Rect
module Point = Fp_geometry.Point
module Tol = Fp_geometry.Tol
module Placement = Fp_core.Placement
module Net = Fp_netlist.Net

type node = int
type orient = H | V

type edge = {
  a : node;
  b : node;
  length : float;
  capacity : float;
  orient : orient;
}

type t = {
  xs : float array;
  ys : float array;
  blockages : Rect.t array;
  nodes : Point.t array;
  node_id : int array array;  (* [ix].(iy) -> node or -1 *)
  edge_arr : edge array;
}

let num_nodes t = Array.length t.nodes
let num_edges t = Array.length t.edge_arr
let node_pos t n = t.nodes.(n)
let edges t = t.edge_arr
let edge_at t i = t.edge_arr.(i)

(* A point strictly inside some blockage cannot host a node. *)
let inside_blockage blocks x y =
  Array.exists
    (fun (r : Rect.t) ->
      Tol.lt r.Rect.x x && Tol.lt x (Rect.x_max r)
      && Tol.lt r.Rect.y y && Tol.lt y (Rect.y_max r))
    blocks

(* A segment crosses a blockage when its interior enters the blockage's
   interior.  For axis-parallel grid segments adjacent in the Hanan grid
   it suffices to test the midpoint. *)
let segment_blocked blocks (x0, y0) (x1, y1) =
  let mx = 0.5 *. (x0 +. x1) and my = 0.5 *. (y0 +. y1) in
  inside_blockage blocks mx my

(* Free clearance around a horizontal segment in the vertical direction:
   the length of the maximal y-interval around [y] that stays outside
   every blockage over the segment's x-range, clipped to the chip. *)
let clearance_v blocks ~chip_h ~x0 ~x1 y =
  let lo = ref 0. and hi = ref chip_h in
  Array.iter
    (fun (r : Rect.t) ->
      if Tol.lt (Float.max r.Rect.x x0) (Float.min (Rect.x_max r) x1) then begin
        (* Blockage overlaps the x-range: its top below y pushes lo up;
           its bottom above y pushes hi down. *)
        if Tol.leq (Rect.y_max r) y && Rect.y_max r > !lo then
          lo := Rect.y_max r;
        if Tol.leq y r.Rect.y && r.Rect.y < !hi then hi := r.Rect.y
      end)
    blocks;
  Float.max 0. (!hi -. !lo)

let clearance_h blocks ~chip_w ~y0 ~y1 x =
  let lo = ref 0. and hi = ref chip_w in
  Array.iter
    (fun (r : Rect.t) ->
      if Tol.lt (Float.max r.Rect.y y0) (Float.min (Rect.y_max r) y1) then begin
        if Tol.leq (Rect.x_max r) x && Rect.x_max r > !lo then
          lo := Rect.x_max r;
        if Tol.leq x r.Rect.x && r.Rect.x < !hi then hi := r.Rect.x
      end)
    blocks;
  Float.max 0. (!hi -. !lo)

let build ?(pitch_h = 1.0) ?(pitch_v = 1.0) pl =
  let chip_w = pl.Placement.chip_width and chip_h = pl.Placement.height in
  let blocks = Array.of_list (Placement.rects pl) in
  let coords axis =
    let base = [ 0.; (match axis with `X -> chip_w | `Y -> chip_h) ] in
    let of_rect (r : Rect.t) =
      match axis with
      | `X -> [ r.Rect.x; Rect.x_max r ]
      | `Y -> [ r.Rect.y; Rect.y_max r ]
    in
    Array.to_list blocks
    |> List.concat_map of_rect
    |> List.append base
    |> List.filter (fun c ->
           Tol.geq c 0.
           && Tol.leq c (match axis with `X -> chip_w | `Y -> chip_h))
    |> List.sort_uniq compare
    (* Merge coordinates closer than tolerance so degenerate slivers do
       not create zero-length edges. *)
    |> List.fold_left
         (fun acc c ->
           match acc with
           | prev :: _ when Tol.equal prev c -> acc
           | _ -> c :: acc)
         []
    |> List.rev |> Array.of_list
  in
  let xs = coords `X and ys = coords `Y in
  let nx = Array.length xs and ny = Array.length ys in
  let node_id = Array.make_matrix nx ny (-1) in
  let nodes = ref [] and count = ref 0 in
  for ix = 0 to nx - 1 do
    for iy = 0 to ny - 1 do
      if not (inside_blockage blocks xs.(ix) ys.(iy)) then begin
        node_id.(ix).(iy) <- !count;
        nodes := Point.make xs.(ix) ys.(iy) :: !nodes;
        incr count
      end
    done
  done;
  let nodes = Array.of_list (List.rev !nodes) in
  let edge_list = ref [] in
  let add_edge a b length capacity orient =
    edge_list := { a; b; length; capacity; orient } :: !edge_list
  in
  (* Horizontal edges. *)
  for iy = 0 to ny - 1 do
    for ix = 0 to nx - 2 do
      let a = node_id.(ix).(iy) and b = node_id.(ix + 1).(iy) in
      if a >= 0 && b >= 0 then begin
        let x0 = xs.(ix) and x1 = xs.(ix + 1) and y = ys.(iy) in
        if not (segment_blocked blocks (x0, y) (x1, y)) then begin
          let gap = clearance_v blocks ~chip_h ~x0 ~x1 y in
          let capacity = Float.max 0. (Float.round (gap /. pitch_h)) in
          add_edge a b (x1 -. x0) capacity H
        end
      end
    done
  done;
  (* Vertical edges. *)
  for ix = 0 to nx - 1 do
    for iy = 0 to ny - 2 do
      let a = node_id.(ix).(iy) and b = node_id.(ix).(iy + 1) in
      if a >= 0 && b >= 0 then begin
        let y0 = ys.(iy) and y1 = ys.(iy + 1) and x = xs.(ix) in
        if not (segment_blocked blocks (x, y0) (x, y1)) then begin
          let gap = clearance_h blocks ~chip_w ~y0 ~y1 x in
          let capacity = Float.max 0. (Float.round (gap /. pitch_v)) in
          add_edge a b (y1 -. y0) capacity V
        end
      end
    done
  done;
  {
    xs; ys; blockages = blocks; nodes; node_id;
    edge_arr = Array.of_list (List.rev !edge_list);
  }

let nearest_index arr v =
  let best = ref 0 and best_d = ref infinity in
  Array.iteri
    (fun i c ->
      let d = Float.abs (c -. v) in
      if d < !best_d then begin
        best_d := d;
        best := i
      end)
    arr;
  !best

let pin_node t (p : Placement.placed) side =
  let r = p.Placement.rect in
  (* One coordinate is pinned to the module side; the other snaps to the
     nearest grid line within the side's extent that hosts a node. *)
  let fixed_x, fixed_y, scan =
    match side with
    | Net.Left -> (Some r.Rect.x, None, `Y (r.Rect.y, Rect.y_max r))
    | Net.Right -> (Some (Rect.x_max r), None, `Y (r.Rect.y, Rect.y_max r))
    | Net.Bottom -> (None, Some r.Rect.y, `X (r.Rect.x, Rect.x_max r))
    | Net.Top -> (None, Some (Rect.y_max r), `X (r.Rect.x, Rect.x_max r))
  in
  let ix_fixed = Option.map (nearest_index t.xs) fixed_x in
  let iy_fixed = Option.map (nearest_index t.ys) fixed_y in
  let candidates =
    match scan with
    | `Y (lo, hi) ->
      let ix = Option.get ix_fixed in
      List.filter_map
        (fun iy ->
          if Tol.geq t.ys.(iy) lo && Tol.leq t.ys.(iy) hi
             && t.node_id.(ix).(iy) >= 0
          then Some (t.node_id.(ix).(iy), Float.abs (t.ys.(iy) -. (0.5 *. (lo +. hi))))
          else None)
        (List.init (Array.length t.ys) Fun.id)
    | `X (lo, hi) ->
      let iy = Option.get iy_fixed in
      List.filter_map
        (fun ix ->
          if Tol.geq t.xs.(ix) lo && Tol.leq t.xs.(ix) hi
             && t.node_id.(ix).(iy) >= 0
          then Some (t.node_id.(ix).(iy), Float.abs (t.xs.(ix) -. (0.5 *. (lo +. hi))))
          else None)
        (List.init (Array.length t.xs) Fun.id)
  in
  match
    List.sort (fun (_, d1) (_, d2) -> compare d1 d2) candidates
  with
  | (n, _) :: _ -> n
  | [] ->
    (* A module side with no free node should be impossible (corners are
       grid points outside any interior), but fall back to the global
       nearest node rather than crash. *)
    let mid = Rect.side_midpoint r
        (match side with
        | Net.Left -> `Left | Net.Right -> `Right
        | Net.Bottom -> `Bottom | Net.Top -> `Top)
    in
    let best = ref 0 and best_d = ref infinity in
    Array.iteri
      (fun i p ->
        let d = Point.manhattan p mid in
        if d < !best_d then begin
          best_d := d;
          best := i
        end)
      t.nodes;
    !best

let pp_stats ppf t =
  Format.fprintf ppf "channel graph: %d x %d grid, %d nodes, %d edges"
    (Array.length t.xs) (Array.length t.ys) (num_nodes t) (num_edges t)
