(* The calibration kernel: a fixed amount of host work that touches no
   CSOD code.  Every timed unit of the benchmark is bracketed by two runs
   of it, and the unit's cost is reported as its wall time divided by the
   mean of the two bracketing kernel times — a ratio that cancels most of
   the speed changes of a shared, contended host.

   The work is a mix of hash-table lookups/updates and scattered byte
   reads/writes, roughly what the simulator itself spends its time on.
   Everything is allocated in [create]; [run] allocates nothing, which
   every benchmark run verifies with [allocated_words]. *)

let table_keys = 4096
let buf_bytes = 1 lsl 18
let iters = 120_000 (* about 10 ms on a 2-core x86 VM *)

type t = {
  table : (int, int) Hashtbl.t;
  buf : Bytes.t;
  mutable state : int;
}

let create () =
  let table = Hashtbl.create table_keys in
  for k = 0 to table_keys - 1 do
    Hashtbl.replace table k k
  done;
  { table; buf = Bytes.make buf_bytes '\x00'; state = 0x2545F491 }

(* xorshift64, truncated to OCaml's 63-bit ints: a cheap, deterministic
   address stream. *)
let next s =
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  s lxor (s lsl 17)

let run t =
  let s = ref t.state in
  let acc = ref 0 in
  for _ = 1 to iters do
    s := next !s;
    let k = !s land (table_keys - 1) in
    (* Replacing an existing key updates its bucket in place: no
       allocation. *)
    let v = Hashtbl.find t.table k in
    Hashtbl.replace t.table k (v + 1);
    let i = (!s lsr 20) land (buf_bytes - 1) in
    let b = Char.code (Bytes.unsafe_get t.buf i) in
    Bytes.unsafe_set t.buf i (Char.unsafe_chr ((b + v) land 0xff));
    acc := !acc + b
  done;
  t.state <- !s lxor !acc

(* The kernel's nominal duration.  Set-up time is reported as its
   calibrated cost times this constant: seconds on a host where the kernel
   takes exactly this long, so that a slow or contended host does not
   read as a slower set-up. *)
let reference_s = 0.010

let now_ns () = Monotonic_clock.now ()

(* Wall seconds of one kernel run. *)
let time t =
  let t0 = now_ns () in
  run t;
  let t1 = now_ns () in
  Int64.to_float (Int64.sub t1 t0) *. 1e-9

(* Words the kernel's timed region allocates on the minor heap (the
   kernel never allocates on the major heap directly); must be 0. *)
let allocated_words t =
  let w0 = Gc.minor_words () in
  run t;
  let w1 = Gc.minor_words () in
  w1 -. w0
