(* Tests for Fp_lp.Revised and Fp_lp.Basis: deterministic known LPs, a
   qcheck oracle pitting the revised simplex against the legacy dense
   tableau solver on random bounded LPs, warm-vs-cold equivalence on
   branched (bound-tightened) subproblems, the sparse LU against a dense
   reference LU, and factor reuse between sibling solves. *)

module Lp = Fp_lp.Lp_problem
module Simplex = Fp_lp.Simplex
module Revised = Fp_lp.Revised
module Basis = Fp_lp.Basis
module Fault = Fp_util.Fault

let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg

let solve_opt p =
  match Revised.solve p with
  | Revised.Optimal { x; obj; _ }, _ -> (x, obj)
  | Revised.Infeasible, _ -> Alcotest.fail "unexpected infeasible"
  | Revised.Unbounded, _ -> Alcotest.fail "unexpected unbounded"
  | Revised.Iteration_limit, _ -> Alcotest.fail "unexpected iteration limit"

(* --------------------------- known LPs ------------------------------ *)

let test_textbook_max () =
  (* max 3x + 5y; x <= 4; 2y <= 12; 3x + 2y <= 18. Optimum (2, 6) -> 36. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:3. "x" in
  let y = Lp.add_var p ~obj:5. "y" in
  Lp.set_sense p Lp.Maximize;
  Lp.add_constr p [ (1., x) ] Lp.Le 4.;
  Lp.add_constr p [ (2., y) ] Lp.Le 12.;
  Lp.add_constr p [ (3., x); (2., y) ] Lp.Le 18.;
  let sol, obj = solve_opt p in
  checkf "obj" 36. obj;
  checkf "x" 2. sol.(x);
  checkf "y" 6. sol.(y)

let test_equality_system () =
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:neg_infinity ~obj:1. "x" in
  let y = Lp.add_var p ~obj:1. "y" in
  Lp.add_constr p [ (1., x); (1., y) ] Lp.Eq 3.;
  Lp.add_constr p [ (1., x); (-1., y) ] Lp.Eq (-1.);
  let sol, _ = solve_opt p in
  checkf "x" 1. sol.(x);
  checkf "y" 2. sol.(y)

let test_free_variable () =
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:neg_infinity ~obj:1. "x" in
  Lp.add_constr p [ (1., x) ] Lp.Ge (-7.);
  let sol, obj = solve_opt p in
  checkf "x" (-7.) sol.(x);
  checkf "obj" (-7.) obj

let test_no_rows () =
  (* Pure-bound LP: zero constraint rows, m = 0 basis. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:neg_infinity ~ub:3. ~obj:1. "x" in
  let y = Lp.add_var p ~lb:(-2.) ~ub:5. ~obj:(-1.) "y" in
  Lp.set_sense p Lp.Maximize;
  let sol, obj = solve_opt p in
  checkf "x" 3. sol.(x);
  checkf "y" (-2.) sol.(y);
  checkf "obj" 5. obj

let test_bound_flips () =
  let p = Lp.create () in
  let x = Lp.add_var p ~ub:1. ~obj:(-1.) "x" in
  let y = Lp.add_var p ~ub:1. ~obj:(-2.) "y" in
  Lp.add_constr p [ (1., x); (1., y) ] Lp.Le 1.5;
  let sol, obj = solve_opt p in
  checkf "obj" (-2.5) obj;
  checkf "x" 0.5 sol.(x);
  checkf "y" 1. sol.(y)

let test_fixed_variable () =
  let p = Lp.create () in
  let _x = Lp.add_var p ~lb:2. ~ub:2. ~obj:1. "x" in
  let _y = Lp.add_var p ~ub:4. ~obj:1. "y" in
  Lp.add_constr p [ (1., _x); (1., _y) ] Lp.Ge 5.;
  let _, obj = solve_opt p in
  checkf "obj" 5. obj

let test_infeasible () =
  let p = Lp.create () in
  let x = Lp.add_var p "x" in
  Lp.add_constr p [ (1., x) ] Lp.Ge 5.;
  Lp.add_constr p [ (1., x) ] Lp.Le 3.;
  Alcotest.(check bool) "infeasible" true
    (match Revised.solve p with Revised.Infeasible, _ -> true | _ -> false)

let test_unbounded () =
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:1. "x" in
  let y = Lp.add_var p ~obj:(-1.) "y" in
  Lp.add_constr p [ (1., x); (-1., y) ] Lp.Le 0.;
  Alcotest.(check bool) "unbounded" true
    (match Revised.solve p with Revised.Unbounded, _ -> true | _ -> false)

let test_warm_after_bound_change () =
  (* Re-solve after a branch-style bound tightening: the warm path must
     engage (stats.warm) and agree with a cold solve. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~ub:10. ~obj:(-3.) "x" in
  let y = Lp.add_var p ~ub:10. ~obj:(-5.) "y" in
  Lp.add_constr p [ (1., x); (2., y) ] Lp.Le 14.;
  Lp.add_constr p [ (3., x); (-1., y) ] Lp.Ge 0.;
  Lp.add_constr p [ (1., x); (-1., y) ] Lp.Le 2.;
  let basis =
    match Revised.solve p with
    | Revised.Optimal { basis; _ }, _ -> basis
    | _ -> Alcotest.fail "root solve failed"
  in
  Lp.set_bounds p x ~lb:0. ~ub:3.;
  let warm_res, warm_stats = Revised.solve_from basis p in
  let cold_res, _ = Revised.solve p in
  (match (warm_res, cold_res) with
  | Revised.Optimal { obj = a; _ }, Revised.Optimal { obj = b; _ } ->
    checkf "warm obj = cold obj" b a
  | _ -> Alcotest.fail "expected optimal on both paths");
  Alcotest.(check bool) "warm path used" true warm_stats.Revised.warm

let test_warm_detects_infeasible () =
  let p = Lp.create () in
  let x = Lp.add_var p ~ub:10. ~obj:1. "x" in
  Lp.add_constr p [ (1., x) ] Lp.Ge 4.;
  let basis =
    match Revised.solve p with
    | Revised.Optimal { basis; _ }, _ -> basis
    | _ -> Alcotest.fail "root solve failed"
  in
  Lp.set_bounds p x ~lb:0. ~ub:2.;
  (match Revised.solve_from basis p with
  | Revised.Infeasible, _ -> ()
  | _ -> Alcotest.fail "expected infeasible after tightening")

(* --------------------- random bounded LPs -------------------------- *)

type rlp = {
  sense_max : bool;
  bounds : (float * float) array;
  obj : float array;
  rows : (float array * Lp.cmp * float) list;
}

let print_rlp r =
  let cmp_str = function Lp.Le -> "<=" | Lp.Ge -> ">=" | Lp.Eq -> "=" in
  Printf.sprintf "%s obj=[%s] bounds=[%s] rows=[%s]"
    (if r.sense_max then "max" else "min")
    (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%g") r.obj)))
    (String.concat ","
       (Array.to_list
          (Array.map (fun (l, u) -> Printf.sprintf "(%g,%g)" l u) r.bounds)))
    (String.concat "; "
       (List.map
          (fun (cs, cmp, rhs) ->
            Printf.sprintf "[%s] %s %g"
              (String.concat ","
                 (Array.to_list (Array.map (Printf.sprintf "%g") cs)))
              (cmp_str cmp) rhs)
          r.rows))

let rlp_gen =
  QCheck.Gen.(
    let* nv = int_range 2 5 in
    let* sense_max = bool in
    let* bounds =
      array_repeat nv
        (let* lb_kind = int_bound 4 in
         let* span = int_range 1 12 in
         let lb =
           match lb_kind with
           | 0 -> -3.
           | 1 -> -1.
           | 4 -> neg_infinity
           | _ -> 0.
         in
         let* open_ub = int_bound 4 in
         let ub =
           if open_ub = 0 && lb > neg_infinity then infinity
           else (if lb = neg_infinity then -3. else lb) +. float_of_int span
         in
         return (lb, ub))
    in
    let* obj =
      array_repeat nv (map (fun n -> float_of_int (n - 5)) (int_bound 10))
    in
    let* rows =
      list_size (int_range 1 6)
        (let* coeffs =
           array_repeat nv (map (fun n -> float_of_int (n - 3)) (int_bound 6))
         in
         let* cmp =
           frequency [ (5, return Lp.Le); (3, return Lp.Ge); (1, return Lp.Eq) ]
         in
         let* rhs = map (fun n -> float_of_int (n - 10)) (int_bound 20) in
         return (coeffs, cmp, rhs))
    in
    return { sense_max; bounds; obj; rows })

(* Larger and sparser: up to 14 rows over up to 10 variables, about
   two coefficients in three zero, so bases have room for fill-in and
   for exact-zero skipping. *)
let sparse_rlp_gen =
  QCheck.Gen.(
    let* nv = int_range 2 10 in
    let* bounds =
      array_repeat nv
        (let* lo = int_range (-3) 0 in
         let* span = int_range 1 12 in
         return (float_of_int lo, float_of_int (lo + span)))
    in
    let* obj =
      array_repeat nv (map (fun n -> float_of_int (n - 5)) (int_bound 10))
    in
    let* rows =
      list_size (int_range 1 14)
        (let* coeffs =
           array_repeat nv
             (frequency
                [ (2, return 0.);
                  (1, map (fun n -> float_of_int (n - 4)) (int_bound 8)) ])
         in
         let* cmp = frequency [ (5, return Lp.Le); (3, return Lp.Ge) ] in
         let* rhs = map (fun n -> float_of_int (n - 10)) (int_bound 30) in
         return (coeffs, cmp, rhs))
    in
    let* sense_max = bool in
    return { sense_max; bounds; obj; rows })

(* Coefficients in {-1, 0, 1} only: nearly every pivot column holds
   several entries of the same magnitude, so the first-max tie-break by
   row position decides most pivots. *)
let tie_rlp_gen =
  QCheck.Gen.(
    let* nv = int_range 2 10 in
    let* rows =
      list_size (int_range 2 14)
        (let* coeffs =
           array_repeat nv (oneofl [ 0.; 0.; 1.; -1. ])
         in
         let* cmp = oneofl [ Lp.Le; Lp.Ge ] in
         return (coeffs, cmp, 1.))
    in
    return
      { sense_max = false; bounds = Array.make nv (0., 1.);
        obj = Array.make nv 1.; rows })

(* An arrow: variable 0 in every row and row 0 over every variable, the
   rest sparse, so eliminating the dense column fills the factors in. *)
let fill_rlp_gen =
  QCheck.Gen.(
    let* nv = int_range 3 10 in
    let nonzero = map (fun n -> float_of_int (if n < 4 then n - 4 else n - 3)) (int_bound 7) in
    let* first = array_repeat nv nonzero in
    let* rest =
      list_size (int_range 2 13)
        (let* c0 = nonzero in
         let* tail =
           array_repeat (nv - 1)
             (frequency [ (3, return 0.); (1, nonzero) ])
         in
         return (Array.append [| c0 |] tail, Lp.Le, 5.))
    in
    return
      { sense_max = false; bounds = Array.make nv (0., 4.);
        obj = Array.make nv (-1.); rows = (first, Lp.Le, 9.) :: rest })

let rlp_arb = QCheck.make ~print:print_rlp rlp_gen

let any_rlp_arb =
  QCheck.make ~print:print_rlp (QCheck.Gen.oneof [ rlp_gen; sparse_rlp_gen ])

let lu_rlp_arb =
  QCheck.make ~print:print_rlp
    (QCheck.Gen.oneof [ rlp_gen; sparse_rlp_gen; tie_rlp_gen; fill_rlp_gen ])

let build r =
  let p = Lp.create () in
  let nv = Array.length r.bounds in
  let vars =
    Array.init nv (fun i ->
        let lb, ub = r.bounds.(i) in
        Lp.add_var p ~lb ~ub ~obj:r.obj.(i) (Printf.sprintf "v%d" i))
  in
  if r.sense_max then Lp.set_sense p Lp.Maximize;
  List.iter
    (fun (coeffs, cmp, rhs) ->
      let terms = ref [] in
      Array.iteri
        (fun i c -> if c <> 0. then terms := (c, vars.(i)) :: !terms)
        coeffs;
      if !terms <> [] then Lp.add_constr p !terms cmp rhs)
    r.rows;
  p

let agree p r_dense r_rev =
  match (r_dense, r_rev) with
  | Simplex.Optimal { obj = a; _ }, Revised.Optimal { obj = b; x; _ } ->
    Float.abs (a -. b) < 1e-5 && Lp.constraint_violation p x < 1e-6
  | Simplex.Infeasible, Revised.Infeasible -> true
  | Simplex.Unbounded, Revised.Unbounded -> true
  | Simplex.Iteration_limit, _ | _, Revised.Iteration_limit -> true
  | _ -> false

let test_revised_matches_dense =
  QCheck.Test.make ~name:"revised = dense simplex on random bounded LPs"
    ~count:220 rlp_arb (fun r ->
      let p = build r in
      agree p (Simplex.solve p) (fst (Revised.solve p)))

let agree_rev p r1 r2 =
  match (r1, r2) with
  | Revised.Optimal { obj = a; x; _ }, Revised.Optimal { obj = b; _ } ->
    Float.abs (a -. b) < 1e-5 && Lp.constraint_violation p x < 1e-6
  | Revised.Infeasible, Revised.Infeasible -> true
  | Revised.Unbounded, Revised.Unbounded -> true
  | Revised.Iteration_limit, _ | _, Revised.Iteration_limit -> true
  | _ -> false

let test_warm_equals_cold =
  QCheck.Test.make
    ~name:"solve_from parent basis = cold solve on branched subproblems"
    ~count:120 rlp_arb (fun r ->
      let p = build r in
      match Revised.solve p with
      | Revised.Optimal { x; basis; _ }, _ ->
        let ok = ref true in
        Array.iteri
          (fun v xv ->
            if !ok then begin
              let lb = Lp.var_lb p v and ub = Lp.var_ub p v in
              (* Down and up branches around the LP value, as B&B does. *)
              List.iter
                (fun (nlb, nub) ->
                  if !ok && nub >= nlb then begin
                    Lp.set_bounds p v ~lb:nlb ~ub:nub;
                    let warm, stats = Revised.solve_from basis p in
                    let cold, _ = Revised.solve p in
                    ignore stats;
                    if not (agree_rev p warm cold) then ok := false;
                    Lp.set_bounds p v ~lb ~ub
                  end)
                [
                  (lb, Float.min ub (Float.floor xv));
                  (Float.max lb (Float.ceil xv), ub);
                ]
            end)
          x;
        !ok
      | _ -> true)

(* ----------------------- verdict-bounded probes ---------------------- *)

(* A random LP made a maximization over a finite box, and a threshold
   placed relative to its cold optimum: exactly at it, just either side
   of it, well away, or a fraction of the way up to the box's interval
   bound, where the probe starts. *)
let finite_max r =
  {
    r with
    sense_max = true;
    bounds =
      Array.map
        (fun (lb, ub) ->
          let lb = if lb = neg_infinity then -3. else lb in
          (lb, if ub = infinity then lb +. 8. else ub))
        r.bounds;
  }

type place = Off of float | Toward_box of float

let probe_arb =
  QCheck.make
    ~print:(fun (r, place) ->
      Printf.sprintf "%s threshold=%s" (print_rlp r)
        (match place with
        | Off d -> Printf.sprintf "opt%+g" d
        | Toward_box f -> Printf.sprintf "opt+%g*(box-opt)" f))
    QCheck.Gen.(
      pair
        (map finite_max (oneof [ rlp_gen; sparse_rlp_gen ]))
        (oneof
           [ map (fun d -> Off d) (oneofl [ 0.; -1e-7; 1e-7; -0.5; 0.5; 5. ]);
             map (fun f -> Toward_box f) (oneofl [ 0.1; 0.5; 0.9 ]) ]))

let threshold_of r cold place =
  match (cold, place) with
  | Revised.Optimal { obj; _ }, Off d -> obj +. d
  | Revised.Optimal { obj; _ }, Toward_box f ->
    let box = ref 0. in
    Array.iteri
      (fun v (lb, ub) ->
        box := !box +. Float.max (r.obj.(v) *. lb) (r.obj.(v) *. ub))
      r.bounds;
    obj +. (f *. (!box -. obj))
  | _, (Off d | Toward_box d) -> d

let rel_close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)

(* A [Below b] answer bounds the cold optimum and passes the threshold; a
   probe that runs to its end agrees with the cold solve, infeasibility
   included. *)
let test_probe_sound =
  QCheck.Test.make ~name:"probe_sup_ws: Below bounds the cold optimum"
    ~count:600 probe_arb (fun (r, place) ->
      let p = build r in
      let cold = fst (Revised.solve p) in
      let threshold = threshold_of r cold place in
      let ws = Revised.workspace () in
      match (fst (Revised.probe_sup_ws ws ~threshold p), cold) with
      | Revised.Below b, Revised.Optimal { obj; _ } ->
        b <= threshold && obj <= b +. (1e-9 *. Float.max 1. (Float.abs b))
      | Revised.Below b, Revised.Infeasible -> b <= threshold
      | Revised.Solved (Revised.Optimal { obj = a; x; _ }),
        Revised.Optimal { obj; _ } ->
        rel_close a obj && Lp.constraint_violation p x < 1e-6
      | Revised.Solved Revised.Infeasible, Revised.Infeasible -> true
      | Revised.Solved Revised.Iteration_limit, _ -> true
      | _ -> false)

(* With a costed variable's favourable bound opened, the probe has no
   dual-feasible start and must be the cold solve, stats included. *)
let test_probe_fallback =
  QCheck.Test.make ~name:"probe_sup_ws: infinite favourable bound = cold solve"
    ~count:200 probe_arb (fun (r, place) ->
      let p = build r in
      match Array.find_index (fun c -> c <> 0.) r.obj with
      | None -> true
      | Some v ->
        if r.obj.(v) > 0. then
          Lp.set_bounds p v ~lb:(Lp.var_lb p v) ~ub:infinity
        else Lp.set_bounds p v ~lb:neg_infinity ~ub:(Lp.var_ub p v);
        let threshold = threshold_of r (fst (Revised.solve p)) place in
        let probe, pstats =
          Revised.probe_sup_ws (Revised.workspace ()) ~threshold p
        in
        let cold, cstats = Revised.solve p in
        probe = Revised.Solved cold && pstats = cstats)

(* ------------------- sparse LU vs dense reference ------------------- *)

(* The dense LU that Basis used to hold, kept here as the reference:
   partial pivoting on the first row of largest magnitude, L and U in one
   m x m array, full-width triangular loops that also subtract the exact
   zeros, and dense product-form etas.  The sparse factors must
   reproduce every value it computes. *)
module Dense_lu = struct
  type t = {
    m : int;
    cols : (int * float) array array;
    basis : int array;
    mutable lu : float array array;
    mutable perm : int array;
    mutable etas : (int * float array) list;  (* newest first *)
  }

  let factorize m cols basis =
    let a = Array.make_matrix m m 0. in
    Array.iteri
      (fun j bj -> Array.iter (fun (i, v) -> a.(i).(j) <- v) cols.(bj))
      basis;
    let perm = Array.init m Fun.id in
    let rec go k =
      if k >= m then Some (a, perm)
      else begin
        let p = ref k in
        for i = k + 1 to m - 1 do
          if Float.abs a.(i).(k) > Float.abs a.(!p).(k) then p := i
        done;
        if Float.abs a.(!p).(k) <= Basis.pivot_tol then None
        else begin
          let tmp = a.(k) in
          a.(k) <- a.(!p);
          a.(!p) <- tmp;
          let tp = perm.(k) in
          perm.(k) <- perm.(!p);
          perm.(!p) <- tp;
          let row_k = a.(k) in
          for i = k + 1 to m - 1 do
            let row_i = a.(i) in
            let l = row_i.(k) /. row_k.(k) in
            if l <> 0. then begin
              row_i.(k) <- l;
              for j = k + 1 to m - 1 do
                row_i.(j) <- row_i.(j) -. (l *. row_k.(j))
              done
            end
          done;
          go (k + 1)
        end
      end
    in
    go 0

  let create m cols basis =
    Option.map
      (fun (lu, perm) ->
        { m; cols; basis = Array.copy basis; lu; perm; etas = [] })
      (factorize m cols basis)

  let pivots t = Array.init t.m (fun i -> t.lu.(i).(i))

  let ftran t v =
    let m = t.m and lu = t.lu in
    let w = Array.init m (fun i -> v.(t.perm.(i))) in
    for i = 0 to m - 1 do
      let acc = ref w.(i) in
      for j = 0 to i - 1 do
        acc := !acc -. (lu.(i).(j) *. w.(j))
      done;
      w.(i) <- !acc
    done;
    for i = m - 1 downto 0 do
      let acc = ref w.(i) in
      for j = i + 1 to m - 1 do
        acc := !acc -. (lu.(i).(j) *. w.(j))
      done;
      w.(i) <- !acc /. lu.(i).(i)
    done;
    Array.blit w 0 v 0 m;
    List.iter
      (fun (r, ecol) ->
        let vr = v.(r) in
        if vr <> 0. then begin
          for i = 0 to m - 1 do
            v.(i) <- v.(i) +. (ecol.(i) *. vr)
          done;
          v.(r) <- ecol.(r) *. vr
        end)
      (List.rev t.etas)

  let btran t v =
    let m = t.m and lu = t.lu in
    List.iter
      (fun (r, ecol) ->
        let acc = ref 0. in
        for i = 0 to m - 1 do
          acc := !acc +. (ecol.(i) *. v.(i))
        done;
        v.(r) <- !acc)
      t.etas;
    let z = Array.make m 0. in
    for i = 0 to m - 1 do
      let acc = ref v.(i) in
      for j = 0 to i - 1 do
        acc := !acc -. (lu.(j).(i) *. z.(j))
      done;
      z.(i) <- !acc /. lu.(i).(i)
    done;
    for i = m - 1 downto 0 do
      let acc = ref z.(i) in
      for j = i + 1 to m - 1 do
        acc := !acc -. (lu.(j).(i) *. z.(j))
      done;
      z.(i) <- !acc
    done;
    for i = 0 to m - 1 do
      v.(t.perm.(i)) <- z.(i)
    done

  let update t ~row ~col ~d =
    let piv = d.(row) in
    if Float.abs piv <= Basis.pivot_tol then `Tiny_pivot
    else begin
      t.basis.(row) <- col;
      if List.length t.etas >= Basis.refactor_every then
        match factorize t.m t.cols t.basis with
        | Some (lu, perm) ->
          t.lu <- lu;
          t.perm <- perm;
          t.etas <- [];
          `Refactored
        | None -> `Singular
      else begin
        let ecol = Array.init t.m (fun i -> -.d.(i) /. piv) in
        ecol.(row) <- 1. /. piv;
        t.etas <- (row, ecol) :: t.etas;
        `Updated
      end
    end
end

(* The standardized matrix [A | I] of a random LP, as columns. *)
let columns r =
  let rows = Array.of_list r.rows in
  let m = Array.length rows and nv = Array.length r.bounds in
  let structural =
    Array.init nv (fun v ->
        Array.of_list
          (List.filter_map
             (fun i ->
               let coeffs, _, _ = rows.(i) in
               if coeffs.(v) <> 0. then Some (i, coeffs.(v)) else None)
             (List.init m Fun.id)))
  in
  (m, Array.append structural (Array.init m (fun i -> [| (i, 1.) |])))

let mat_of_columns m cols =
  let n = Array.length cols in
  let col_start = Array.make (n + 1) 0 in
  Array.iteri
    (fun j c -> col_start.(j + 1) <- col_start.(j) + Array.length c)
    cols;
  let entries = Array.concat (Array.to_list cols) in
  { Basis.m; col_start; row_idx = Array.map fst entries;
    coef = Array.map snd entries }

(* Every field of a sparse factor against the dense reference's one
   m x m array, under [=]: the permutation, the pivots, and L by columns
   and U by rows with the exact zeros left out. *)
let factor_equals_dense (f : Basis.factor) (d : Dense_lu.t) =
  let m = d.Dense_lu.m and lu = d.Dense_lu.lu in
  let after k = List.init (m - k - 1) (fun i -> k + 1 + i) in
  let l_rows j = Array.of_list (List.filter (fun i -> lu.(i).(j) <> 0.) (after j))
  and u_cols i = Array.of_list (List.filter (fun j -> lu.(i).(j) <> 0.) (after i)) in
  f.Basis.perm = d.Dense_lu.perm
  && f.Basis.udiag = Dense_lu.pivots d
  && List.for_all
       (fun k ->
         let rows = l_rows k and cols = u_cols k in
         f.Basis.l_idx.(k) = rows
         && f.Basis.l_val.(k) = Array.map (fun i -> lu.(i).(k)) rows
         && f.Basis.u_idx.(k) = cols
         && f.Basis.u_val.(k) = Array.map (fun j -> lu.(k).(j)) cols)
       (List.init m Fun.id)

(* Sparse vs dense on one random LP: a random basis (a few draws until
   one is nonsingular, skipped otherwise), then up to 80 random column
   replacements — past Basis.refactor_every, so the embedded
   refactorization runs too.  The factors must be equal field by field;
   after every step both must agree on the basis and, under [=], on
   ftran and btran of random vectors. *)
let sparse_matches_dense r seed =
  let rng = Random.State.make [| seed |] in
  let m, cols = columns r in
  let n = Array.length cols in
  let mat = mat_of_columns m cols in
  let sc = Basis.scratch () in
  let random_basis () =
    let order = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    Array.sub order 0 m
  in
  let random_vec () =
    Array.init m (fun _ -> float_of_int (Random.State.int rng 11 - 5))
  in
  let solves_agree sparse dense =
    List.for_all
      (fun (sp, de) ->
        let v = random_vec () in
        let a = Array.copy v and b = Array.copy v in
        sp sparse a;
        de dense b;
        a = b)
      [ (Basis.ftran, Dense_lu.ftran); (Basis.btran, Dense_lu.btran) ]
  in
  let rec attempt tries =
    if tries = 0 then true
    else begin
      let basis = random_basis () in
      match (Basis.factorize sc mat basis, Dense_lu.create m cols basis) with
      | Error `Singular, None -> attempt (tries - 1)
      | Ok _, None | Error `Singular, Some _ -> false
      | Ok f, Some dense ->
        factor_equals_dense f dense
        &&
        let sparse = Basis.of_factor sc mat f in
        let rec step k =
          if k = 0 then true
          else begin
            let col = Random.State.int rng n in
            if Array.mem col (Basis.basis sparse) then step (k - 1)
            else begin
              let d = Array.make m 0. in
              Array.iter (fun (i, c) -> d.(i) <- c) cols.(col);
              let d' = Array.copy d in
              Basis.ftran sparse d;
              Dense_lu.ftran dense d';
              d = d'
              &&
              let row = ref 0 in
              Array.iteri
                (fun i x -> if Float.abs x > Float.abs d.(!row) then row := i)
                d;
              let got =
                match Basis.update sparse ~row:!row ~col ~d with
                | Ok `Updated -> `Updated
                | Ok `Refactored -> `Refactored
                | Error `Tiny_pivot -> `Tiny_pivot
                | Error `Singular -> `Singular
              in
              got = Dense_lu.update dense ~row:!row ~col ~d:d'
              && Basis.basis sparse = dense.Dense_lu.basis
              && (got = `Singular
                 || (solves_agree sparse dense && step (k - 1)))
            end
          end
        in
        solves_agree sparse dense && step (Random.State.int rng 81)
    end
  in
  attempt 5

let test_sparse_lu_matches_dense =
  QCheck.Test.make
    ~name:"sparse LU = dense reference LU (pivots, ftran, btran, etas)"
    ~count:400
    (QCheck.pair lu_rlp_arb QCheck.small_nat)
    (fun (r, seed) -> sparse_matches_dense r seed)

(* The standardized matrix of a problem, as Revised builds it:
   structural columns with their nonzero entries in row order, then one
   unit logical column per row. *)
let standardized_columns p =
  let m = Lp.num_constrs p and nv = Lp.num_vars p in
  let structural = Array.make nv [] in
  for i = m - 1 downto 0 do
    List.iter
      (fun (c, v) -> if c <> 0. then structural.(v) <- (i, c) :: structural.(v))
      (Lp.constr_at p i).Lp.terms
  done;
  ( m,
    Array.append
      (Array.map Array.of_list structural)
      (Array.init m (fun i -> [| (i, 1.) |])) )

(* The bases a branch-and-bound meets: a K=8 [tight] floorplan model,
   solved at the root and dived depth first, each child re-solved warm
   from its parent's snapshot with one fractional binary fixed.  Every
   optimal snapshot's basis is factored both ways. *)
let test_lu_on_tight_snapshots () =
  let module F = Fp_core.Formulation in
  let module Gen = Fp_netlist.Generator in
  let module Md = Fp_netlist.Module_def in
  let nl =
    Gen.generate
      { Gen.default_config with
        Gen.num_modules = 8; total_area = 349. *. 8.; seed = 8 }
  in
  let mods = Array.to_list (Fp_netlist.Netlist.modules nl) in
  let items = List.map F.plain_item mods in
  let area = List.fold_left (fun a md -> a +. Md.area md) 0. mods in
  let chip_width =
    List.fold_left
      (fun a it -> Float.max a (F.item_min_width it))
      (Float.sqrt (1.2 *. area)) items
  in
  let height_bound =
    2. *. List.fold_left (fun a it -> a +. F.item_min_height it) 0. items
  in
  let built =
    F.build ~chip_width ~height_bound ~formulation:F.Tight items
  in
  let model = built.F.model in
  let p = Fp_milp.Model.problem model in
  let m, cols = standardized_columns p in
  let mat = mat_of_columns m cols in
  let sc = Basis.scratch () in
  let checked = ref 0 in
  let check snap =
    let basis = Revised.snapshot_basis snap in
    match (Basis.factorize sc mat basis, Dense_lu.create m cols basis) with
    | Ok f, Some dense ->
      incr checked;
      Alcotest.(check bool)
        (Printf.sprintf "snapshot %d: factors equal" !checked)
        true (factor_equals_dense f dense)
    | _ -> Alcotest.fail "an optimal basis must factor both ways"
  in
  let ints = Fp_milp.Model.integer_vars model in
  let rec dive depth snap x =
    check snap;
    let frac =
      List.find_opt
        (fun v -> Float.abs (x.(v) -. Float.round x.(v)) > 1e-6)
        ints
    in
    match frac with
    | Some v when depth < 12 && !checked < 60 ->
      let lb = Lp.var_lb p v and ub = Lp.var_ub p v in
      List.iter
        (fun b ->
          Lp.set_bounds p v ~lb:b ~ub:b;
          (match Revised.solve_from snap p with
          | Revised.Optimal { x; basis; _ }, _ -> dive (depth + 1) basis x
          | _ -> ());
          Lp.set_bounds p v ~lb ~ub)
        [ Float.floor x.(v); Float.ceil x.(v) ]
    | _ -> ()
  in
  (match Revised.solve p with
  | Revised.Optimal { x; basis; _ }, _ -> dive 0 basis x
  | _ -> Alcotest.fail "root LP must be optimal");
  Alcotest.(check bool) "enough snapshots" true (!checked >= 20)

(* ------------------------- factor reuse ------------------------------ *)

(* Branch every variable of a random LP's optimum down and up, as B&B
   does: the first child factorizes the parent basis into the shared
   slot, the second (its last expected user) reuses it and lets it go.
   Both must return exactly what a stand-alone solve_from (which
   factorizes afresh) returns. *)
let test_sibling_factor_reuse =
  QCheck.Test.make
    ~name:"solve_from on a sibling's factor = solve_from factoring afresh"
    ~count:150 any_rlp_arb (fun r ->
      let p = build r in
      match Revised.solve p with
      | Revised.Optimal { x; basis; _ }, _ ->
        let ws = Revised.workspace () in
        let ok = ref true in
        Array.iteri
          (fun v xv ->
            let lb = Lp.var_lb p v and ub = Lp.var_ub p v in
            let slot = Revised.factor_slot ~uses:2 () in
            List.iter
              (fun (nlb, nub) ->
                if !ok && nub >= nlb then begin
                  Lp.set_bounds p v ~lb:nlb ~ub:nub;
                  let shared = Revised.solve_from_ws ws ~slot basis p in
                  let fresh = Revised.solve_from basis p in
                  if shared <> fresh then ok := false;
                  Lp.set_bounds p v ~lb ~ub
                end)
              [
                (lb, Float.min ub (Float.floor xv));
                (Float.max lb (Float.ceil xv), ub);
              ])
          x;
        !ok
      | _ -> true)

(* The singular-LU fault fires once per warm solve, reused factor or
   not; a fired fault takes the cold fallback and leaves the shared
   factor in place for the next sibling. *)
let test_singular_fault_with_shared_factor () =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset @@ fun () ->
  let p = Lp.create () in
  let x = Lp.add_var p ~ub:10. ~obj:(-3.) "x" in
  let y = Lp.add_var p ~ub:10. ~obj:(-5.) "y" in
  Lp.add_constr p [ (1., x); (2., y) ] Lp.Le 14.;
  Lp.add_constr p [ (3., x); (-1., y) ] Lp.Ge 0.;
  Lp.add_constr p [ (1., x); (-1., y) ] Lp.Le 2.;
  let basis =
    match Revised.solve p with
    | Revised.Optimal { basis; _ }, _ -> basis
    | _ -> Alcotest.fail "root solve failed"
  in
  let ws = Revised.workspace () and slot = Revised.factor_slot () in
  let child ub =
    Lp.set_bounds p x ~lb:0. ~ub;
    Revised.solve_from_ws ws ~slot basis p
  in
  let site = "basis.singular_lu" in
  Fault.arm (Fault.spec ~after:max_int site);
  let first = child 3. in
  let second = child 2. in
  Alcotest.(check int) "one hit per warm solve, reused or not" 2
    (Fault.hits site);
  Alcotest.(check bool) "both warm" true
    ((snd first).Revised.warm && (snd second).Revised.warm);
  Fault.arm (Fault.spec ~count:1 site);
  let faulted = child 2. in
  Alcotest.(check bool) "fired fault falls back cold" true
    (faulted = Revised.solve p);
  let after = child 2. in
  Alcotest.(check bool) "factor still shared after the fault" true
    ((snd after).Revised.warm && after = Revised.solve_from basis p)

let () =
  Alcotest.run "fp_lp_revised"
    [
      ( "known",
        [
          Alcotest.test_case "textbook max" `Quick test_textbook_max;
          Alcotest.test_case "equalities" `Quick test_equality_system;
          Alcotest.test_case "free variable" `Quick test_free_variable;
          Alcotest.test_case "no rows" `Quick test_no_rows;
          Alcotest.test_case "bound flips" `Quick test_bound_flips;
          Alcotest.test_case "fixed variable" `Quick test_fixed_variable;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "warm after bound change" `Quick
            test_warm_after_bound_change;
          Alcotest.test_case "warm detects infeasible" `Quick
            test_warm_detects_infeasible;
          Alcotest.test_case "singular fault with shared factor" `Quick
            test_singular_fault_with_shared_factor;
          Alcotest.test_case "sparse LU = dense on tight K=8 snapshots" `Quick
            test_lu_on_tight_snapshots;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest test_revised_matches_dense;
          QCheck_alcotest.to_alcotest test_warm_equals_cold;
          QCheck_alcotest.to_alcotest test_sparse_lu_matches_dense;
          QCheck_alcotest.to_alcotest test_sibling_factor_reuse;
          QCheck_alcotest.to_alcotest test_probe_sound;
          QCheck_alcotest.to_alcotest test_probe_fallback;
        ] );
    ]
