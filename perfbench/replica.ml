(* The traced replica of [Execution.run].

   It rebuilds one execution from the same public calls [Execution.run]
   makes — [Machine.create], [Heap.create], [Config.instantiate],
   [Engine.run], the configuration's [finish], [Sparse_mem.release] — and
   times each of them, wrapping the tool's [malloc]/[free] callbacks with
   timers and GC-word counters.  Nothing inside the program is modified:
   every number is taken at a layer boundary the program already exposes.
   [Perfbench] checks that the replica's observables equal the real
   [Execution.run]'s on the workload's seeds, so the timings describe the
   execution that is actually benchmarked. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Minor-heap words allocated so far by this domain, as an int so that
   reading and accumulating it allocates nothing. *)
let words () = int_of_float (Gc.minor_words ())

(* ---- observables ---- *)

(* What a correct execution must reproduce exactly for its seed. *)
type obs = {
  detected : bool;
  cycles : int;
  reports : string list;
  output : string;
  crashed : string option;
}

let obs_of_outcome app (o : Execution.outcome) =
  let symbolize = Execution.symbolizer app in
  { detected = o.Execution.detected;
    cycles = o.Execution.cycles;
    reports = List.map (Report.one_line ~symbolize) o.Execution.reports;
    output = o.Execution.output;
    crashed = o.Execution.crashed }

(* ---- per-layer accumulators ---- *)

type acc = {
  mutable execs : int;
  mutable create_ns : int;       (* Machine.create + Heap.create *)
  mutable instantiate_ns : int;  (* Config.instantiate *)
  mutable run_ns : int;          (* Engine.run, callbacks included *)
  mutable run_words : int;       (* minor words of Engine.run, callbacks included *)
  mutable malloc_ns : int;
  mutable malloc_calls : int;
  mutable malloc_words : int;
  mutable free_ns : int;
  mutable free_calls : int;
  mutable free_words : int;
  mutable finish_ns : int;       (* the configuration's termination hook *)
  mutable release_ns : int;      (* Sparse_mem.release *)
  mutable accesses : int;
  mutable traps : int;
  mutable syscalls : int;
}

let acc () =
  { execs = 0; create_ns = 0; instantiate_ns = 0; run_ns = 0; run_words = 0;
    malloc_ns = 0; malloc_calls = 0; malloc_words = 0; free_ns = 0;
    free_calls = 0; free_words = 0; finish_ns = 0; release_ns = 0;
    accesses = 0; traps = 0; syscalls = 0 }

let add_into ~dst a =
  dst.execs <- dst.execs + a.execs;
  dst.create_ns <- dst.create_ns + a.create_ns;
  dst.instantiate_ns <- dst.instantiate_ns + a.instantiate_ns;
  dst.run_ns <- dst.run_ns + a.run_ns;
  dst.run_words <- dst.run_words + a.run_words;
  dst.malloc_ns <- dst.malloc_ns + a.malloc_ns;
  dst.malloc_calls <- dst.malloc_calls + a.malloc_calls;
  dst.malloc_words <- dst.malloc_words + a.malloc_words;
  dst.free_ns <- dst.free_ns + a.free_ns;
  dst.free_calls <- dst.free_calls + a.free_calls;
  dst.free_words <- dst.free_words + a.free_words;
  dst.finish_ns <- dst.finish_ns + a.finish_ns;
  dst.release_ns <- dst.release_ns + a.release_ns;
  dst.accesses <- dst.accesses + a.accesses;
  dst.traps <- dst.traps + a.traps;
  dst.syscalls <- dst.syscalls + a.syscalls

(* ---- spans ----

   Kept in memory (capped) and written out once, at the end of the run,
   in the trace-event shape of [fleet --trace-out]. *)

type span = {
  id : int;
  parent : int;  (* 0: a root span *)
  name : string;
  unit_id : int;
  track : int;
  t0 : int;  (* monotonic ns *)
  t1 : int;
}

let span_cap = 50_000
let lock = Mutex.create ()
let spans_rev = ref []
let span_count = ref 0
let next_id = Atomic.make 1
let total = acc ()

let fresh_id () = Atomic.fetch_and_add next_id 1

(* Worker slot as seen from outside the pool: the main domain is slot 0,
   any other pool worker is slot 1 (exact up to two domains). *)
let track () = if Domain.is_main_domain () then 0 else 1

let publish a ss =
  Mutex.protect lock (fun () ->
      add_into ~dst:total a;
      List.iter
        (fun s ->
          if !span_count < span_cap then begin
            spans_rev := s :: !spans_rev;
            incr span_count
          end)
        ss)

let spans () = Mutex.protect lock (fun () -> List.rev !spans_rev)

let chrome_json ~domains ~origin ss =
  let sec ns = float_of_int (ns - origin) *. 1e-9 in
  Trace_export.fleet_spans_to_json ~domains
    (List.map
       (fun s ->
         { Trace_export.track = s.track;
           name = s.name;
           start_s = sec s.t0;
           stop_s = sec s.t1;
           args =
             [ ("unit", `Int s.unit_id); ("id", `Int s.id);
               ("parent", `Int s.parent) ] })
       ss)

(* ---- the replica ---- *)

let instrumented_pred (app : Buggy_app.t) program site =
  match Program.module_of_addr program site with
  | Some m -> List.mem m app.Buggy_app.instrumented_modules
  | None -> false

(* Top-level and int-only, so the wrappers below allocate nothing and the
   words counted are the callback's own. *)
let note_malloc a ~t0 ~w0 =
  a.malloc_ns <- a.malloc_ns + (now_ns () - t0);
  a.malloc_calls <- a.malloc_calls + 1;
  a.malloc_words <- a.malloc_words + (words () - w0)

let note_free a ~t0 ~w0 =
  a.free_ns <- a.free_ns + (now_ns () - t0);
  a.free_calls <- a.free_calls + 1;
  a.free_words <- a.free_words + (words () - w0)

let wrap_tool a (tool : Tool.t) =
  let malloc ~size ~ctx =
    let w0 = words () in
    let t0 = now_ns () in
    match tool.Tool.malloc ~size ~ctx with
    | p -> note_malloc a ~t0 ~w0; p
    | exception e -> note_malloc a ~t0 ~w0; raise e
  in
  let free ~ptr =
    let w0 = words () in
    let t0 = now_ns () in
    match tool.Tool.free ~ptr with
    | () -> note_free a ~t0 ~w0
    | exception e -> note_free a ~t0 ~w0; raise e
  in
  { tool with Tool.malloc; free }

(* One execution, exactly as [Execution.run ~respond:Off] performs it
   (no faults, no snapshots), returning the outcome pieces the fleet
   executor and the observables need plus the per-layer numbers. *)
type result = {
  obs : obs;
  machine : Machine.t;
  inst : Config.instance;
  layers : acc;
  spans : span list;
}

let run ~(app : Buggy_app.t) ~config ~engine ~input ~seed ?store ~unit_id () =
  let a = acc () in
  let track = track () in
  let exec_id = fresh_id () in
  let spans = ref [] in
  let timed name f =
    let t0 = now_ns () in
    let v = f () in
    let t1 = now_ns () in
    spans :=
      { id = fresh_id (); parent = exec_id; name; unit_id; track; t0; t1 }
      :: !spans;
    (v, t1 - t0)
  in
  let t_exec0 = now_ns () in
  let program = Buggy_app.program app in
  let (machine, heap), dt =
    timed "machine.create" (fun () ->
        let machine = Machine.create ~seed () in
        (machine, Heap.create machine))
  in
  a.create_ns <- dt;
  let inst, dt =
    timed "core.instantiate" (fun () ->
        Config.instantiate config ~machine ~heap
          ~instrumented:(instrumented_pred app program)
          ?store ~respond:Respond.Off ~seed ())
  in
  a.instantiate_ns <- dt;
  let inputs =
    match input with
    | Execution.Buggy -> app.Buggy_app.buggy_inputs
    | Execution.Benign -> app.Buggy_app.benign_inputs
  in
  let tool = wrap_tool a inst.Config.tool in
  let w0 = words () in
  let (output, crashed), dt =
    timed "minic.run" (fun () ->
        try
          let r =
            Engine.run ~engine ~machine ~tool ~program ~inputs ~app_seed:seed ()
          in
          (r.Interp.output, None)
        with
        | Interp.Runtime_error (msg, loc) ->
          ("", Some (Printf.sprintf "%s: %s" (Srcloc.to_string loc) msg))
        | Heap.Error msg -> ("", Some msg))
  in
  a.run_ns <- dt;
  a.run_words <- words () - w0;
  let (), dt = timed "core.finish" (fun () -> inst.Config.finish ()) in
  a.finish_ns <- dt;
  let reports =
    match inst.Config.csod with Some rt -> Runtime.detections rt | None -> []
  in
  let symbolize = Execution.symbolizer app in
  let obs =
    { detected = inst.Config.detected ();
      cycles = Clock.cycles (Machine.clock machine);
      reports = List.map (Report.one_line ~symbolize) reports;
      output;
      crashed }
  in
  a.accesses <- Machine.access_count machine;
  a.traps <- Machine.trap_count machine;
  a.syscalls <- Machine.syscall_count machine;
  let (), dt =
    timed "machine.release" (fun () -> Sparse_mem.release (Machine.mem machine))
  in
  a.release_ns <- dt;
  a.execs <- 1;
  let exec_span =
    { id = exec_id; parent = 0; name = "execution"; unit_id; track;
      t0 = t_exec0; t1 = now_ns () }
  in
  { obs; machine; inst; layers = a; spans = exec_span :: List.rev !spans }

(* [run] with its numbers folded into the process-wide accumulator. *)
let run_published ~app ~config ~engine ~input ~seed ?store ~unit_id () =
  let r = run ~app ~config ~engine ~input ~seed ?store ~unit_id () in
  publish r.layers r.spans;
  r

(* ---- fleet executor ----

   [Execution.executor] with a switch: when [traced ()] holds, each user
   runs through the replica and its wall interval is recorded, so a fleet
   or serve step can be split into executor time and the rest; otherwise
   the real executor runs untouched. *)

type exec_interval = { start_ns : int; stop_ns : int }

let intervals_rev = ref []

let take_intervals () =
  Mutex.protect lock (fun () ->
      let l = !intervals_rev in
      intervals_rev := [];
      l)

let executor ~app ~config ~engine ~traced ~unit_id : unit Fleet.executor =
  let real = Execution.executor ~app ~config ~engine () in
  fun ~user ~store ->
    if traced () then begin
      let input =
        if user.Workload.benign then Execution.Benign else Execution.Buggy
      in
      let t0 = now_ns () in
      let r =
        run_published ~app ~config ~engine ~input ~seed:user.Workload.seed
          ~store ~unit_id:(unit_id ()) ()
      in
      let t1 = now_ns () in
      Mutex.protect lock (fun () ->
          intervals_rev := { start_ns = t0; stop_ns = t1 } :: !intervals_rev);
      let csod = r.inst.Config.csod in
      { Fleet.payload = ();
        detected = r.obs.detected;
        source =
          (match Option.map Runtime.detections csod with
          | Some (rep :: _) -> Some rep.Report.source
          | _ -> None);
        cycles = r.obs.cycles;
        telemetry = Some (Machine.telemetry r.machine);
        degraded = (match csod with Some rt -> Runtime.degraded rt | None -> false) }
    end
    else { (real ~user ~store) with Fleet.payload = () }
