(* Order statistics for the benchmark's samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median = function
  | [] -> invalid_arg "Stats.median: no samples"
  | xs ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let percentile ~per_mille = function
  | [] -> invalid_arg "Stats.percentile: no samples"
  | xs ->
    let a = sorted xs in
    let n = Array.length a in
    let rank = ((n * per_mille) + 999) / 1000 in
    a.(Int.max 0 (rank - 1))

let beyond ~n ~per_mille = n * (1000 - per_mille) / 1000

let ladder = [ 500; 900; 990; 999 ]

let reportable ~n =
  List.fold_left
    (fun acc p -> if beyond ~n ~per_mille:p >= 10 then Some p else acc)
    None ladder

let label per_mille =
  if per_mille mod 10 = 0 then Printf.sprintf "p%d" (per_mille / 10)
  else Printf.sprintf "p%d.%d" (per_mille / 10) (per_mille mod 10)

let summary ~unit xs =
  let n = List.length xs in
  let tail =
    match reportable ~n with
    | None -> ""
    | Some p ->
      Printf.sprintf ", %s %.4f %s" (label p) (percentile ~per_mille:p xs) unit
  in
  Printf.sprintf "median %.4f %s%s (n=%d)" (median xs) unit tail n
