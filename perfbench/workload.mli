(** The benchmark's workloads and the plan flow it times.

    Every workload plans one instance with the successive-augmentation
    MILP engine, then compacts, re-optimizes the known topology,
    certifies, routes with congestion weights and adjusts the chip for
    the routing channels — the [floorplanner route] flow.  Only node
    budgets bound the searches (the time limit is out of reach), so
    plans, counts and quality repeat exactly from run to run. *)

type t = {
  name : string;
  formulation : Fp_core.Formulation.mode;
  nodes : int;  (** branch-and-bound node budget per augmentation step *)
  jobs : int;
  checking : bool;
      (** lint every step's model and certify every partial placement,
          as [floorplanner check] does *)
  family : [ `Table1_k15 | `Ami33 ];
  default_instance_seed : int;
      (** the instance seed of the Table-1 K=15 instance, or [0] for the
          bundled ami33 *)
}

val all : t list
val find : string -> t option

val base_instance : ?instance_seed:int -> t -> Fp_netlist.Netlist.t
(** The workload's instance.  At its [default_instance_seed] this is the
    Table-1 K=15 instance or the bundled ami33; another instance seed
    generates another instance of the same class. *)

val relabel : seed:int -> Fp_netlist.Netlist.t -> Fp_netlist.Netlist.t
(** Prefix every module, net and instance name with a tag made from
    [seed].  Ids, shapes, pins and the order of names are unchanged, so
    the plan does not depend on [seed]. *)

val config :
  ?inspect:Fp_core.Augment.inspect -> ?jobs:int -> t -> Fp_core.Augment.config

(** A step as the inspection hooks saw it. *)
type capture = {
  built : Fp_core.Formulation.built;
  stat : Fp_core.Augment.step_stat;
  before : Fp_core.Placement.t;  (** partial plan the step started from *)
}

type plan = {
  result : Fp_core.Augment.result;
  final : Fp_core.Placement.t;
  routing : Fp_route.Global_router.t;
  adjust : Fp_route.Adjust.report;
  seconds : float;  (** from the instance to the certified, routed plan *)
  problems : string list;  (** failed output checks; empty on success *)
  captures : capture list;  (** in step order; empty unless traced *)
}

val plan : ?trace:Trace.t -> ?jobs:int -> t -> Fp_netlist.Netlist.t -> plan
(** Run the flow once.  With [trace], every call is wrapped in a span,
    the steps are captured and step spans are recorded from the hook
    timestamps.  [jobs] overrides the workload's domain count. *)

val degraded_steps : plan -> int
val utilization : Fp_netlist.Netlist.t -> plan -> float
val hpwl : Fp_netlist.Netlist.t -> plan -> float

val digest : plan -> string
(** Digest of the committed and the final placement, bit for bit. *)
