(** A fixed pool of worker domains (OCaml 5 multicore) with a
    deterministic batch-map interface.

    The calling domain participates as worker 0: a pool created with
    [~jobs:1] spawns no domains at all and {!map} is a plain [Array.map],
    so sequential callers pay nothing.  With [jobs > 1], [jobs - 1]
    domains are spawned lazily — on the first batch that actually
    dispatches — and then reused across batches.

    Dispatch follows one fixed rule: a batch runs inline on the caller
    iff [size = 1], the batch has at most one item, or the machine has a
    single core; every other batch is dispatched to the workers.  On a
    single core the worker domains are therefore never spawned at all.
    Inline and dispatched batches produce identical results in identical
    order — only the domains that evaluate the items differ. *)

type t

val create : jobs:int -> t
(** [create ~jobs] builds a pool of [jobs] workers ([jobs - 1] lazily
    spawned domains plus the caller).  Raises [Invalid_argument] when
    [jobs < 1]. *)

val size : t -> int
(** Total workers, including the caller. *)

val map : t -> worker:(int -> 'a -> 'b) -> 'a array -> 'b array
(** [map pool ~worker items] evaluates [worker wid items.(i)] for every
    [i], with [wid] the index (0 to [size - 1]) of the worker that claimed
    the item, and returns the results in item order.  Items are claimed
    dynamically in short contiguous chunks, so the schedule balances
    uneven work; the result order is deterministic regardless.  [worker]
    must only touch shared state that is safe for the worker id it is
    given (e.g. per-worker scratch indexed by [wid]).  Some batches run
    entirely on worker 0 (see the dispatch rule above).

    If any item raises, one such exception is re-raised in the caller
    after the whole batch settles; the pool remains usable.  Calling
    [map] on a shut-down pool raises [Invalid_argument] on every path,
    including the trivial inline ones. *)

val shutdown : t -> unit
(** Stop and join the spawned domains.  Idempotent; any later {!map}
    raises [Invalid_argument]. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] on a fresh pool and shuts it down on the
    way out, even on exceptions. *)

val recommended_jobs : unit -> int
(** The runtime's recommended domain count for this machine. *)
