(** Fixed-size domain pool with per-worker work-stealing deques.

    One pool serves a whole floorplanning run: the branch-and-bound seeds
    it with independent subtree tasks, the augmentation layer with
    candidate-group MILPs.  Workers are OCaml 5 [Domain]s spawned once at
    {!create} and parked between batches, so per-batch overhead is a
    mutex handshake, not a domain spawn.

    Scheduling: a batch of [n] tasks is dealt round-robin into one
    Chase–Lev-style deque per worker.  Each worker drains its own deque
    LIFO and, when empty, steals FIFO from the other workers, so a skewed
    batch (one huge branch-and-bound subtree next to many trivial ones)
    still keeps every domain busy.  Tasks must not submit nested batches
    to the same pool — a worker blocking on a sub-batch would deadlock
    the pool; parallelize at one level only (see docs/parallel.md).

    The calling domain participates as worker [0], so [create ~jobs]
    spawns only [jobs - 1] new domains and [jobs = 1] spawns none
    (everything runs inline, no synchronization).  Worker [0] takes its
    first task of a batch before the other workers are woken, so it runs
    at least one task of every non-empty batch.

    Memory model: the batch handshake is mutex-protected, so writes a
    task makes before finishing happen-before the reads the caller makes
    after {!run} returns — tasks can fill slots of a result array without
    further synchronization, as long as no two tasks share a slot. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains.  [jobs] is clamped
    to [1, 64].  Values above [Domain.recommended_domain_count ()]
    oversubscribe the machine — allowed (the scaling bench measures it)
    but not useful in production. *)

val jobs : t -> int
(** Number of workers, including the calling domain. *)

val run : t -> n:int -> (worker:int -> int -> unit) -> unit
(** [run t ~n f] executes [f ~worker i] for every [i] in [0, n),
    distributing tasks over all workers; [worker] is the index (in
    [0, jobs)) of the domain that actually executes the task, for
    per-domain scratch state.  Blocks until every task has finished.  If
    tasks raise, one of the exceptions is re-raised in the caller after
    the batch has drained (the rest are dropped).

    Must be called from the domain that created the pool, and never
    reentrantly. *)

val map : t -> n:int -> (worker:int -> int -> 'a) -> 'a array
(** [map t ~n f] is {!run} collecting results: element [i] is
    [f ~worker i]. *)

val shutdown : t -> unit
(** Join all worker domains.  The pool must not be used afterwards.
    Idempotent. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] on a fresh pool and always shuts it
    down, even if [f] raises. *)
