type frame = { fid : int; buf : bytes; mutable refs : int }

type t = {
  page_size : int;
  mutable next_id : int;
  mutable live : int;
  mutable allocs : int;
  mutable copies : int;
  mutable next_map : int;  (* map identities, for the write observer *)
  mutable write_observer : (map:int -> vpage:int -> frame:int -> unit) option;
}

(* Page buffers of [page_size] bytes whose frame reached refcount 0: a
   stack, [bufs.(0 .. n-1)]. A page of the 3B2 model is one word over the
   minor heap's size limit, so every fresh [Bytes.make] lands on the major
   heap; recycling keeps that allocation, and the major collections it
   drives, off the per-request path. *)
type pool = { size : int; bufs : bytes array; mutable n : int }

let pool_limit = 1024

(* One list of pools (one per page size seen) per domain. Looked up on
   every alloc and free, never captured in a store, so no pool is ever
   touched by two domains. *)
let pools : pool list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let rec find_pool size = function
  | p :: rest -> if p.size = size then p else find_pool size rest
  | [] -> raise Not_found

let pool size =
  let ps = Domain.DLS.get pools in
  match find_pool size !ps with
  | p -> p
  | exception Not_found ->
    let p = { size; bufs = Array.make pool_limit Bytes.empty; n = 0 } in
    ps := p :: !ps;
    p

(* A buffer of the pool's size, contents unspecified. *)
let take size =
  let p = pool size in
  if p.n = 0 then Bytes.create size
  else begin
    p.n <- p.n - 1;
    let b = p.bufs.(p.n) in
    p.bufs.(p.n) <- Bytes.empty;
    b
  end

(* Past [pool_limit] buffers the freed one is left to the GC. *)
let give buf =
  let p = pool (Bytes.length buf) in
  if p.n < pool_limit then begin
    p.bufs.(p.n) <- buf;
    p.n <- p.n + 1
  end

let create ~page_size =
  if page_size <= 0 then invalid_arg "Frame_store.create: page_size";
  { page_size; next_id = 0; live = 0; allocs = 0; copies = 0; next_map = 0;
    write_observer = None }

let fresh_map_id t =
  let id = t.next_map in
  t.next_map <- t.next_map + 1;
  id

let set_write_observer t f = t.write_observer <- f

let notify_write t ~map ~vpage ~frame =
  match t.write_observer with
  | Some f -> f ~map ~vpage ~frame
  | None -> ()

let page_size t = t.page_size

(* Every frame is a new identity, whatever buffer backs it: frame ids are
   never reused, so an id recorded in an access log always denotes one
   physical write target (the isolation checker depends on this). *)
let fresh t buf =
  let f = { fid = t.next_id; buf; refs = 1 } in
  t.next_id <- t.next_id + 1;
  t.live <- t.live + 1;
  t.allocs <- t.allocs + 1;
  f

let alloc t =
  let buf = take t.page_size in
  Bytes.fill buf 0 t.page_size '\000';
  fresh t buf

let alloc_copy t src =
  let buf = take t.page_size in
  Bytes.blit src.buf 0 buf 0 t.page_size;
  t.copies <- t.copies + 1;
  fresh t buf

let incref f =
  assert (f.refs > 0);
  f.refs <- f.refs + 1

let decref t f =
  assert (f.refs > 0);
  f.refs <- f.refs - 1;
  if f.refs = 0 then begin
    t.live <- t.live - 1;
    give f.buf
  end

let refcount f = f.refs
let data f = f.buf
let id f = f.fid
let live_frames t = t.live
let total_allocations t = t.allocs
let cow_copies t = t.copies
