(** Reference-counted physical page frames.

    The paper manages all sink state as fixed-size pages ("we bury the
    entire memory hierarchy under the page abstraction", section 3.1). A
    {!t} is the set of physical frames shared by every address space in one
    simulation; copy-on-write sharing is expressed through frame reference
    counts.

    {b Buffer recycling.} When a frame's reference count reaches 0 its byte
    buffer goes to a pool local to the current domain, keyed by page size
    and shared by every store that domain touches; {!alloc} and
    {!alloc_copy} take from it before allocating. The pool is looked up on
    every call, never captured in a store, so no pool is ever shared
    between domains. It holds at most 1 024 buffers per page size (2 MiB at
    the 3B2's 2 KiB pages); a buffer freed past that is left to the GC.
    Recycling is invisible: a buffer enters the pool only once nothing
    maps it, and leaves it fully overwritten (zero-filled or copied over),
    while frame ids come from the store. A run sees exactly the bytes and
    ids a fresh allocation would give it.

    There is no shared zero page: comparisons against an unmapped page
    scan the mapped one (see {!Page_map.snapshot_equal}). *)

type frame
(** One physical page frame: a byte buffer plus a reference count. *)

type t
(** A frame store: the frames of one simulation, and their ids. *)

val create : page_size:int -> t
(** [create ~page_size] makes an empty store of frames of [page_size] bytes. *)

val page_size : t -> int

val alloc : t -> frame
(** Allocate a zero-filled frame with reference count 1 and the store's
    next id. *)

val alloc_copy : t -> frame -> frame
(** [alloc_copy t f] allocates a frame whose contents are a copy of
    [f]'s, with reference count 1 and the store's next id. [f]'s count is unchanged. This is the
    copy-on-write fault path; the caller accounts its cost. *)

val incref : frame -> unit
(** Add one reference (a page map sharing the frame). *)

val decref : t -> frame -> unit
(** Drop one reference; when the count reaches zero the frame is dead and
    its buffer goes to the domain's pool. A dead frame must not be used
    again. *)

val refcount : frame -> int

val data : frame -> bytes
(** The frame's backing bytes. Callers must only mutate frames they hold
    exclusively (reference count 1); {!Page_map} enforces this. *)

val id : frame -> int
(** Stable identity of the frame, for tests, traces, and the analysis
    layer's access logs. Ids are dense per store, in allocation order, and
    never reused: a recycled buffer always comes back under a fresh id. *)

val live_frames : t -> int
(** Number of frames currently referenced by at least one map. *)

val total_allocations : t -> int
(** Number of [alloc]/[alloc_copy] calls since creation (monotone). *)

val cow_copies : t -> int
(** Number of [alloc_copy] calls since creation (monotone): the store-wide
    count of copy-on-write faults serviced. *)

val fresh_map_id : t -> int
(** A store-unique identity for a {!Page_map} drawing frames from this
    store. Ids are dense, allocated in creation order, so they are
    deterministic per simulation. *)

val set_write_observer :
  t -> (map:int -> vpage:int -> frame:int -> unit) option -> unit
(** Install (or clear) an online write observer: {!Page_map.note_write}
    reports every {e tracked} page write through it, identifying the
    writing map by its {!fresh_map_id}. Untracked maps stay entirely off
    this path, so benchmarks are unaffected. The analysis layer's
    sanitizer uses this to detect isolation races as they happen. *)

val notify_write : t -> map:int -> vpage:int -> frame:int -> unit
(** Used by {!Page_map}; a no-op when no observer is installed. *)
