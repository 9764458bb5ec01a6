(* Allocation budgets for the per-execution hot path.  Each test counts
   the minor-heap words one domain allocates over many repetitions of an
   operation in steady state, so a change that brings back a boxed int64,
   a closure or a cons cell per call fails here, not only in a benchmark.
   The bounds sit just above the cost measured under the test build,
   which compiles each module opaquely (no cross-module inlining, so a
   float returned across modules is boxed); an optimised build allocates
   less still.  See the comment at each bound. *)

let words () = Gc.minor_words ()

(* Average minor words per call of [f] over [n] calls. *)
let per_call n f =
  let w0 = words () in
  for _ = 1 to n do
    f ()
  done;
  (words () -. w0) /. float_of_int n

let check_budget what ~bound measured =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.2f words per call, budget %g" what measured bound)
    true (measured <= bound)

let test_csod_pair () =
  let machine = Machine.create ~seed:5 () in
  let heap = Heap.create machine in
  let rt = Runtime.create ~machine ~heap () in
  let tool = Runtime.tool rt in
  let ctx = Alloc_ctx.synthetic ~callsite:0x40 ~stack_offset:16 () in
  let pair () = tool.Tool.free ~ptr:(tool.Tool.malloc ~size:24 ~ctx) in
  (* Warm-up: the context is seen, the start-up installs are over and its
     probability, halved on every watch, sits at the floor, so the timed
     pairs take the common path: lookup, plant, coin, check, free. *)
  for _ = 1 to 2_000 do
    pair ()
  done;
  let w = per_call 20_000 pair in
  (* 15.4 words measured: the heap's live-object record and its table
     binding (8), the context's boxed probability update (2), and floats
     boxed at module boundaries of the opaque build. *)
  check_budget "CSOD malloc+free pair" ~bound:17.0 w

let test_vm_calls () =
  let src n =
    Printf.sprintf
      "fn f(x, y) { var z = x + y; return z; }\n\
       fn main() { var i = 0; var s = 0; while (i < %d) { s = f(s, i); i = i + 1; } return s; }"
      n
  in
  let run n =
    let program =
      Program.load_exn [ { Program.file = "t.mc"; module_name = "t"; source = src n } ]
    in
    ignore (Compile.get program);
    let machine = Machine.create ~seed:1 () in
    let tool = Tool.baseline (Heap.create machine) in
    let w0 = words () in
    ignore (Vm.run ~machine ~tool ~program ());
    words () -. w0
  in
  (* The difference of two loop lengths cancels the fixed cost of a run
     (operand stack, locals, frames, output buffer). *)
  let small = run 1_000 and large = run 21_000 in
  let w = (large -. small) /. 20_000. in
  (* 0 measured: frames are ints in a flat array.  A frame record consed
     per call would cost 8 words here. *)
  check_budget "VM call/return" ~bound:0.1 w

let test_words_and_draws () =
  let machine = Machine.create ~seed:1 () in
  let mem = Machine.mem machine in
  Sparse_mem.write_int mem 0x1000 1;
  let i = ref 0 in
  let w =
    per_call 20_000 (fun () ->
        incr i;
        Sparse_mem.write_int mem (0x1000 + (8 * (!i land 63))) !i;
        ignore (Sparse_mem.read_int mem (0x1000 + (8 * (!i land 31)))))
  in
  (* 0 measured, beyond the one boxed reading of the word counter; an
     int64 boxed per access would cost 3 words here. *)
  check_budget "Sparse_mem word store+load" ~bound:0.01 w;
  let g = Prng.create ~seed:3 in
  let w =
    per_call 20_000 (fun () ->
        ignore (Prng.int g 1000);
        ignore (Prng.below_percent g 0.25))
  in
  check_budget "Prng int+below_percent" ~bound:0.01 w

let suite =
  [ Alcotest.test_case "CSOD malloc+free pair, seen context" `Quick test_csod_pair;
    Alcotest.test_case "VM call/return loop" `Quick test_vm_calls;
    Alcotest.test_case "word access and PRNG draws" `Quick test_words_and_draws ]
