

exception Error of string

type obj = {
  req_size : int;        (* size the caller asked for *)
  block : int;           (* bytes reserved; its size class is
                            [Size_class.class_index block] *)
  base : int;            (* base of the underlying block (differs from the
                            object address for memalign interior pointers) *)
}

type t = {
  m : Machine.t;
  small : int array array;               (* per-class state, see below *)
  large_free : (int, int list) Hashtbl.t; (* block size -> free addrs *)
  objects : (int, obj) Hashtbl.t;        (* live objects by address *)
  c_mallocs : Metrics.counter;
  c_frees : Metrics.counter;
  g_live_bytes : Metrics.gauge;
  h_alloc_bytes : Metrics.histogram;
  mutable carved : int;                  (* bytes ever taken from sbrk *)
  mutable live_bytes : int;
  mutable peak_live : int;
  mutable live_block_bytes : int;        (* block bytes currently backing live objects *)
  mutable peak_block_bytes : int;
  mutable allocs : int;
  mutable frees : int;
}

let create m =
  let reg = Machine.registry m in
  { m;
    small = Array.make Size_class.num_small_classes [||];
    large_free = Hashtbl.create 32;
    objects = Hashtbl.create 4096;
    c_mallocs = Metrics.counter reg "heap.mallocs";
    c_frees = Metrics.counter reg "heap.frees";
    g_live_bytes = Metrics.gauge reg "heap.live_bytes";
    h_alloc_bytes = Metrics.histogram reg "heap.alloc_bytes";
    carved = 0;
    live_bytes = 0;
    peak_live = 0;
    live_block_bytes = 0;
    peak_block_bytes = 0;
    allocs = 0;
    frees = 0 }

let machine t = t.m

(* Small classes are refilled a chunk at a time so that consecutive objects
   of one class are adjacent, as in a real segregated heap. *)
let chunk_bytes = 16384

(* A small class's state is one int array, made on the class's first
   use: [| freed; next; limit; f_1; ...; f_freed |].  Freed blocks sit on
   the int stack [f_1..f_freed] (top last), and [next, limit) is what is
   left of the class's latest chunk.  A block is taken from the stack
   first, then from the chunk in address order, and a new chunk is carved
   only when both are empty: the order of one LIFO free list holding the
   freed blocks in front of the chunk's untouched ones, with nothing
   allocated per free and no per-block cell per chunk. *)
let freed = 0
let next = 1
let limit = 2
let header = 3

let class_state t idx =
  let st = t.small.(idx) in
  if Array.length st > 0 then st
  else begin
    let st = Array.make 16 0 in
    t.small.(idx) <- st;
    st
  end

let take_small t idx block =
  let st = class_state t idx in
  let n = st.(freed) in
  if n > 0 then begin
    st.(freed) <- n - 1;
    st.(header + n - 1)
  end
  else begin
    if st.(next) >= st.(limit) then begin
      let bytes = max 1 (chunk_bytes / block) * block in
      let start = Machine.sbrk t.m bytes in
      t.carved <- t.carved + bytes;
      st.(next) <- start;
      st.(limit) <- start + bytes
    end;
    let addr = st.(next) in
    st.(next) <- addr + block;
    addr
  end

let return_small t idx addr =
  let st = class_state t idx in
  let n = st.(freed) in
  let st =
    if header + n < Array.length st then st
    else begin
      let grown = Array.make (2 * Array.length st) 0 in
      Array.blit st 0 grown 0 (Array.length st);
      t.small.(idx) <- grown;
      grown
    end
  in
  st.(header + n) <- addr;
  st.(freed) <- n + 1

(* Block bookkeeping works on plain ints (block size, class index) and
   exception-signalled misses, so the malloc/free pair allocates only the
   live-object record and its table binding. *)
let take_block t block =
  let idx = Size_class.class_index block in
  if idx >= 0 then take_small t idx block
  else
    match Hashtbl.find t.large_free block with
    | addr :: rest ->
      Hashtbl.replace t.large_free block rest;
      addr
    | [] | (exception Not_found) ->
      t.carved <- t.carved + block;
      Machine.sbrk t.m block

let return_block t block base =
  let idx = Size_class.class_index block in
  if idx >= 0 then return_small t idx base
  else
    let prev = try Hashtbl.find t.large_free block with Not_found -> [] in
    Hashtbl.replace t.large_free block (base :: prev)

let register t ~addr ~base ~req_size ~block =
  Hashtbl.replace t.objects addr { req_size; block; base };
  t.allocs <- t.allocs + 1;
  Metrics.incr t.c_mallocs;
  Metrics.observe t.h_alloc_bytes req_size;
  t.live_bytes <- t.live_bytes + req_size;
  if t.live_bytes > t.peak_live then t.peak_live <- t.live_bytes;
  Metrics.set t.g_live_bytes t.live_bytes;
  t.live_block_bytes <- t.live_block_bytes + block;
  if t.live_block_bytes > t.peak_block_bytes then
    t.peak_block_bytes <- t.live_block_bytes

let malloc t size =
  if size < 0 then raise (Error "malloc: negative size");
  Machine.work_as t.m Profiler.Alloc_fast Cost.malloc_base;
  let block = Size_class.block_size size in
  let addr = take_block t block in
  register t ~addr ~base:addr ~req_size:size ~block;
  addr

let free t addr =
  Machine.work_as t.m Profiler.Alloc_fast Cost.malloc_base;
  match Hashtbl.find t.objects addr with
  | exception Not_found ->
    if addr = 0 then () (* free(NULL) is a no-op *)
    else raise (Error (Printf.sprintf "free: invalid or already-freed pointer 0x%x" addr))
  | obj ->
    Hashtbl.remove t.objects addr;
    t.frees <- t.frees + 1;
    Metrics.incr t.c_frees;
    t.live_bytes <- t.live_bytes - obj.req_size;
    Metrics.set t.g_live_bytes t.live_bytes;
    t.live_block_bytes <- t.live_block_bytes - obj.block;
    return_block t obj.block obj.base

let calloc t ~count ~size =
  if count < 0 || size < 0 then raise (Error "calloc: negative argument");
  let total = count * size in
  let addr = malloc t total in
  Sparse_mem.fill (Machine.mem t.m) addr total 0;
  addr

let realloc t ptr size =
  if ptr = 0 then malloc t size
  else if size = 0 then begin
    free t ptr;
    0
  end
  else
    match Hashtbl.find_opt t.objects ptr with
    | None -> raise (Error (Printf.sprintf "realloc: invalid pointer 0x%x" ptr))
    | Some obj ->
      if size <= obj.block - (ptr - obj.base) then begin
        (* Shrink or grow within the existing block: update bookkeeping. *)
        t.live_bytes <- t.live_bytes - obj.req_size + size;
        if t.live_bytes > t.peak_live then t.peak_live <- t.live_bytes;
        Metrics.set t.g_live_bytes t.live_bytes;
        Hashtbl.replace t.objects ptr { obj with req_size = size };
        ptr
      end
      else begin
        let fresh = malloc t size in
        let mem = Machine.mem t.m in
        let copy = min obj.req_size size in
        for i = 0 to copy - 1 do
          Sparse_mem.write_u8 mem (fresh + i) (Sparse_mem.read_u8 mem (ptr + i))
        done;
        free t ptr;
        fresh
      end

let memalign t ~alignment ~size =
  if alignment <= 0 || alignment land (alignment - 1) <> 0 then
    raise (Error "memalign: alignment must be a positive power of two");
  if alignment > 4096 then raise (Error "memalign: alignment too large");
  if alignment <= Size_class.align then malloc t size
  else begin
    Machine.work_as t.m Profiler.Alloc_fast Cost.malloc_base;
    let block = Size_class.block_size (size + alignment) in
    let base = take_block t block in
    let addr = (base + alignment - 1) / alignment * alignment in
    register t ~addr ~base ~req_size:size ~block;
    addr
  end

let size_of t addr =
  Option.map (fun o -> o.req_size) (Hashtbl.find_opt t.objects addr)

let is_live t addr = Hashtbl.mem t.objects addr

let usable_size t addr =
  Option.map (fun o -> o.block - (addr - o.base)) (Hashtbl.find_opt t.objects addr)

let iter_live f t = Hashtbl.iter (fun addr o -> f ~addr ~size:o.req_size) t.objects

let live_objects t = Hashtbl.length t.objects
let live_bytes t = t.live_bytes
let peak_live_bytes t = t.peak_live
let total_allocs t = t.allocs
let total_frees t = t.frees

let resident_bytes t =
  (* Peak block bytes backing live objects, plus object-table metadata
     (4 words per entry).  Free-list slack is reusable address space, not
     resident pages: untouched sparse memory costs nothing, mirroring how
     VmHWM sees an mmap-backed allocator. *)
  t.peak_block_bytes + (Hashtbl.length t.objects * 4 * 8)
