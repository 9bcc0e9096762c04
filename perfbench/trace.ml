type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int option;
  step : int option;
}

type t = {
  clock : unit -> float;
  mutable recorded : span list;
  mutable open_ids : int list;
  mutable next : int;
}

let create ?(clock = Unix.gettimeofday) () =
  { clock; recorded = []; open_ids = []; next = 0 }

let now t = t.clock ()

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let innermost t = match t.open_ids with p :: _ -> Some p | [] -> None

let with_span t ?step name f =
  let id = fresh t in
  let parent = innermost t in
  t.open_ids <- id :: t.open_ids;
  let start = t.clock () in
  Fun.protect
    ~finally:(fun () ->
      let stop = t.clock () in
      t.open_ids <- List.tl t.open_ids;
      t.recorded <- { id; name; start; stop; parent; step } :: t.recorded)
    f

let record t ?step name ~start ~stop =
  let id = fresh t in
  t.recorded <- { id; name; start; stop; parent = innermost t; step } :: t.recorded

let spans t =
  List.sort
    (fun a b ->
      match Float.compare a.start b.start with 0 -> compare a.id b.id | c -> c)
    t.recorded

let duration s = s.stop -. s.start

let children all s = List.filter (fun c -> c.parent = Some s.id) all

let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let self_time s intervals =
  duration s -. covered ~lo:s.start ~hi:s.stop intervals

let write_chrome path spans =
  let t0 = List.fold_left (fun a s -> Float.min a s.start) infinity spans in
  let us x = (x -. t0) *. 1e6 in
  let event s =
    let args =
      List.filter_map Fun.id
        [ Some ("id", Json.Int s.id);
          Option.map (fun p -> ("parent", Json.Int p)) s.parent;
          Option.map (fun k -> ("step", Json.Int k)) s.step ]
    in
    Json.Obj
      [ ("name", Json.Str s.name); ("ph", Json.Str "X");
        ("ts", Json.Float (us s.start)); ("dur", Json.Float (us s.stop -. us s.start));
        ("pid", Json.Int 1); ("tid", Json.Int 1); ("args", Json.Obj args) ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Json.to_string
           (Json.Obj [ ("traceEvents", Json.List (List.map event spans)) ]));
      output_char oc '\n')
