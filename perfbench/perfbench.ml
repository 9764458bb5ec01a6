(* Host-cost benchmark of the CSOD simulator.

     perfbench --workload W --seed N --seconds S --trace 0|1

   Workloads (closed loops: the next unit starts when the previous one
   ends; the seed fixes every input):

     exec-heartbleed  serial Execution.run of Heartbleed's buggy input
                      under CSOD on the VM, cycling over 32 seeds
     fleet-zziplib    Fleet.start/step of Zziplib at 1 domain, epochs of
                      32 Steady arrivals, a quarter of the users benign
     serve-zziplib    Serve.start/step of Zziplib at 1 domain, 2 arrivals
                      per epoch, history every epoch, status + checkpoint
                      every 128 epochs, into a scratch directory

   Host time is reported in calibration units: every timed unit (10 to
   50 ms of work) is bracketed by runs of a fixed kernel (Calib), and its
   cost is its wall time over the mean of the two kernel times, divided
   by the executions in the unit.  Raw rates swing by tens of percent on
   a shared host; the ratio does not.

   --trace 0 prints the end-to-end metrics: exec_cost_p50/p90 (cal/exec),
   setup_s, peak_rss_mb, alloc_kw_per_exec, major_kw_per_exec.
   --trace 1 alternates untraced units with units run through the traced
   replica of Execution.run (Replica) and prints the per-layer metrics,
   writing the spans as trace-event JSON under .bench_build/perfbench/.

   Every unit is checked against a reference computed on an independent
   path (the AST interpreter; for fleet and serve also one domain and no
   service layer): a unit whose observables differ, or that raises,
   counts as failed, and the run goes on.  The last line of standard
   output is one JSON object: correct, attempted, failed, metrics. *)

let now_ns = Replica.now_ns
let sec_of_ns ns = float_of_int ns *. 1e-9

let median xs = Stats.percentile 50.0 xs

(* ---- workloads ---- *)

type workload = Exec_heartbleed | Fleet_zziplib | Serve_zziplib

let workloads =
  [ ("exec-heartbleed", Exec_heartbleed); ("fleet-zziplib", Fleet_zziplib);
    ("serve-zziplib", Serve_zziplib) ]

let app name =
  match Buggy_app.by_name name with
  | Some a -> a
  | None -> failwith ("unknown app " ^ name)

let config = Config.csod_default
(* One domain: at two, on a shared 2-core host, the unit-cost tail swings
   with whatever else holds the second core (p90 quartile spread 25%
   across seeds), and peak RSS grows by about 1.7 MB per second of
   stepping, so it measures how many epochs the host managed. *)
let fleet_domains = 1
let fleet_epoch = 32
let fleet_epochs_per_unit = 4
let serve_epoch = 2
(* One unit = one status and checkpoint period, 128 epochs.  Both are
   republished by writing a file and renaming it over the previous one,
   which took 0.1 to 0.8 ms on an ext4 disk shared with other load.  With
   status every epoch and a checkpoint every 16, the unit cost followed
   that latency: the p50 quartile spread was 13% across ten seeds, and it
   drifted by 1.4x over the ten consecutive runs.  At 64 epochs the p90
   spread was still 6-8%; longer units average out more of the host's
   syscall noise. *)
let serve_epochs_per_unit = 128
let heartbleed_seeds = 32

(* At least this many timed units per run, so that p90 has ten or more
   samples beyond it; GC words are counted over exactly these. *)
let min_units = 128

(* A population no run can exhaust. *)
let population = 1 lsl 40

let fleet_workload ~seed =
  Workload.make ~benign_frac:0.25 ~base_seed:((seed * 1_000_003) + 1)
    ~burst:Workload.Steady ~users:population ()

(* What a fleet or serve unit must reproduce: detections, virtual cycles
   and the shared store's contexts after the unit.  Serve does not expose
   its store between epochs, so its units leave [keys] empty. *)
type fleet_digest = {
  detections : int;
  cycles : int;
  contexts : int;
  keys : Alloc_ctx.key list;
}

(* ---- scratch files (inside the checkout) ---- *)

let out_dir = Filename.concat ".bench_build" "perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let scratch_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    let d =
      Filename.concat out_dir
        (Printf.sprintf "tmp-%d/%s-%d" (Unix.getpid ()) tag !n)
    in
    mkdir_p d;
    d

let tmp_root () =
  Filename.concat out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ()))

let dir_bytes d =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat d f)).Unix.st_size)
    0 (Sys.readdir d)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* ---- the timed loop ---- *)

(* One unit of work, by unit index: runs the runner's [execs] user
   executions and returns [Ok ()] when they reproduced their reference,
   [Error why] otherwise. *)
type unit_fn = int -> (unit, string) result

type phase = {
  costs : float list array;  (* cal per execution, per unit, by lane *)
  walls : float list array;  (* raw unit seconds, by lane *)
  kernels : float list;      (* raw kernel seconds, one per bracket *)
  units : int;
  failures : (int * string) list;  (* unit index, why *)
  alloc_words : float;       (* over the first [min_units] units *)
  major_words : float;
  counted_execs : int;
}

let gc_words () =
  (* A minor collection first: it folds this domain's running allocation
     into the stats [quick_stat] reads (worker domains fold theirs when
     they exit).  Called only at the two edges of the counted prefix. *)
  Gc.minor ();
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words, s.Gc.major_words)

let run_unit f i =
  match f i with
  | r -> r
  | exception e -> Error ("exception: " ^ Printexc.to_string e)

(* Run units [first], [first + 1], ... until [seconds] have passed and at
   least [min_units] ran, stopping only on a multiple of [granule] units.
   Each unit is bracketed by kernel runs.  [lane i] picks which unit
   function runs unit [i] (the traced run alternates traced and untraced
   units); costs and walls are kept per lane.  GC words are counted over
   the first [min_units] units only, so they do not depend on how many
   units the host managed to run. *)
let timed_phase ~kernel ~seconds ~first ~granule ~execs ~lane
    ~(units : unit_fn array) =
  let costs = Array.make (Array.length units) []
  and walls = Array.make (Array.length units) [] in
  let failures = ref [] and counted = ref (0.0, 0.0) in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let k_prev = ref (Calib.time kernel) in
  let kernels = ref [ !k_prev ] in
  let n = ref 0 in
  let a0, m0 = gc_words () in
  while !n < min_units || now_ns () < deadline || !n mod granule <> 0 do
    let i = first + !n in
    let l = lane i in
    let t0 = now_ns () in
    let r = run_unit units.(l) i in
    let t1 = now_ns () in
    incr n;
    if !n = min_units then begin
      let a1, m1 = gc_words () in
      counted := (a1 -. a0, m1 -. m0)
    end;
    (match r with Ok () -> () | Error why -> failures := (i, why) :: !failures);
    let k = Calib.time kernel in
    let wall = sec_of_ns (t1 - t0) in
    costs.(l) <- (wall /. ((!k_prev +. k) /. 2.0) /. float_of_int execs) :: costs.(l);
    walls.(l) <- wall :: walls.(l);
    kernels := k :: !kernels;
    k_prev := k
  done;
  { costs; walls; kernels = !kernels; units = !n; failures = List.rev !failures;
    alloc_words = fst !counted; major_words = snd !counted;
    counted_execs = min_units * execs }

(* ---- per-workload runners ----

   A runner owns the workload's state between set-up and the end of the
   run.  [unit ~traced] is the unit function; [verify] runs after the
   timed phase and returns the failures found against a reference that is
   only computed then (fleet and serve); [final_store] also finishes a
   fleet or service. *)

(* One traced Fleet.step or Serve.step, with the executor intervals it
   contained. *)
type traced_step = {
  step_name : string;
  step_unit : int;
  t0 : int;
  t1 : int;
  execs_in : Replica.exec_interval list;
}

type runner = {
  execs : int;                      (* user executions per unit *)
  granule : int;                    (* stop on a multiple of this many units *)
  unit : traced:bool -> unit_fn;
  warmup : int;                     (* untimed units before timing *)
  verify : units:int -> (int * string) list;
      (* failures found once the reference is known, by unit index
         (warm-up units first) *)
  final_store : unit -> Persist.t;
  history_bytes_per_epoch : unit -> float;
  step_spans : unit -> traced_step list;  (* since the last call *)
  sample_users : (int * Execution.input_choice) list;
      (* seeds and inputs on which the traced replica is checked against
         Execution.run, and the baseline allocator pass runs *)
}

let describe_obs (o : Replica.obs) =
  Printf.sprintf "detected=%b cycles=%d reports=%d output=%dB crashed=%s"
    o.Replica.detected o.Replica.cycles
    (List.length o.Replica.reports)
    (String.length o.Replica.output)
    (Option.value ~default:"-" o.Replica.crashed)

(* The replica and the real Execution.run agree on every seed given. *)
let check_replica ~app seeds =
  let rec go = function
    | [] -> Ok ()
    | (seed, input) :: rest ->
      let real =
        Replica.obs_of_outcome app
          (Execution.run ~app ~config ~engine:Engine.Vm ~input ~seed ())
      in
      let replica =
        (Replica.run ~app ~config ~engine:Engine.Vm ~input ~seed ~unit_id:0 ())
          .Replica.obs
      in
      if real = replica then go rest
      else
        Error
          (Printf.sprintf "replica differs on seed %d: real {%s} replica {%s}"
             seed (describe_obs real) (describe_obs replica))
  in
  go seeds

(* exec-heartbleed *)

let exec_heartbleed ~seed =
  let app = app "heartbleed" in
  let seeds = Array.init heartbleed_seeds (fun i -> (seed * 1000) + i + 1) in
  (* Reference: the AST interpreter, the engine the VM must equal. *)
  let reference =
    Array.map
      (fun s ->
        Replica.obs_of_outcome app
          (Execution.run ~app ~config ~engine:Engine.Interp ~seed:s ()))
      seeds
  in
  let check i (o : Replica.obs) =
    let r = reference.(i mod heartbleed_seeds) in
    if o = r then Ok ()
    else
      Error
        (Printf.sprintf "seed %d: got {%s} want {%s}"
           seeds.(i mod heartbleed_seeds) (describe_obs o) (describe_obs r))
  in
  let last_store = ref None in
  let unit ~traced i =
    let seed = seeds.(i mod heartbleed_seeds) in
    let o =
      if traced then begin
        let r =
          Replica.run_published ~app ~config ~engine:Engine.Vm
            ~input:Execution.Buggy ~seed ~unit_id:i ()
        in
        last_store := Option.map Runtime.store r.Replica.inst.Config.csod;
        r.Replica.obs
      end
      else
        Replica.obs_of_outcome app
          (Execution.run ~app ~config ~engine:Engine.Vm ~seed ())
    in
    check i o
  in
  { execs = 1;
    granule = heartbleed_seeds;
    unit;
    warmup = heartbleed_seeds;
    verify = (fun ~units:_ -> []);
    final_store =
      (fun () ->
        (* Each execution starts from an empty store; the one it leaves
           behind is what a deployment would save. *)
        match !last_store with Some s -> s | None -> Persist.create ());
    history_bytes_per_epoch = (fun () -> 0.0);
    step_spans = (fun () -> []);
    sample_users =
      Array.to_list (Array.map (fun s -> (s, Execution.Buggy)) seeds) }

(* fleet-zziplib and serve-zziplib share the fleet reference: the same
   workload stepped on one domain with the interpreter, digested per unit
   exactly as the benchmarked run was. *)

let fleet_reference ~app ~workload ~epoch_size ~epochs_per_unit ~units =
  let execute = Execution.executor ~app ~config ~engine:Engine.Interp () in
  let t =
    Fleet.start ~lean:true
      (Fleet.config ~domains:1 ~epoch_size workload)
      ~execute
  in
  Array.init units (fun _ ->
      let det = ref 0 and cyc = ref 0 in
      for _ = 1 to epochs_per_unit do
        let n = Workload.rate workload ~epoch_size (Fleet.epoch t) in
        let r = Fleet.step t ~arrivals:n in
        det := !det + r.Fleet.sample.Health.detections;
        cyc := !cyc + r.Fleet.epoch_cycles
      done;
      let store = Fleet.store t in
      { detections = !det; cycles = !cyc; contexts = Persist.count store;
        keys = Persist.keys store })
  |> fun digests -> (digests, Fleet.store t)

let compare_digests ~got ~want =
  let n = min (Array.length got) (Array.length want) in
  List.filter_map
    (fun i ->
      let g : fleet_digest = got.(i) and w = want.(i) in
      if g = w then None
      else
        Some
          ( i,
            Printf.sprintf
              "got detections=%d cycles=%d contexts=%d, want detections=%d \
               cycles=%d contexts=%d%s"
              g.detections g.cycles g.contexts w.detections w.cycles
              w.contexts
              (if g.keys <> w.keys then " (store keys differ)" else "") ))
    (List.init n Fun.id)

(* The workload's first arrivals, each run on its own from an empty
   store. *)
let first_users workload n =
  List.init n (fun i ->
      let u = Workload.user workload (i + 1) in
      ( u.Workload.seed,
        if u.Workload.benign then Execution.Benign else Execution.Buggy ))

(* A fleet or service under benchmark, as the epoch runner sees it. *)
type stepper = {
  step : unit -> int * int * int;
      (* one epoch: detections, virtual cycles, store contexts after it *)
  unit_keys : (unit -> Alloc_ctx.key list) option;
      (* the shared store's keys between epochs, where they are exposed *)
  final_store : unit -> Persist.t;  (* finishes the fleet or service; idempotent *)
  history_bytes_per_epoch : unit -> float;
}

let once f =
  let v = ref None in
  fun () ->
    match !v with
    | Some x -> x
    | None ->
      let x = f () in
      v := Some x;
      x

let poisoned = { detections = -1; cycles = -1; contexts = -1; keys = [] }

(* fleet-zziplib and serve-zziplib: units of [epochs_per_unit] epochs,
   digested and checked against [fleet_reference], the final store's
   keys included.  [start] builds the stepper around the executor. *)
let epoch_runner ~app ~workload ~epoch_size ~epochs_per_unit ~warmup
    ~step_name ~start =
  let traced = ref false and unit_id = ref 0 in
  let stepper =
    start
      (Replica.executor ~app ~config ~engine:Engine.Vm
         ~traced:(fun () -> !traced)
         ~unit_id:(fun () -> !unit_id))
  in
  let log = ref [] and steps = ref [] in
  let unit ~traced:tr i =
    traced := tr;
    unit_id := i;
    let det = ref 0 and cyc = ref 0 and ctx = ref 0 in
    match
      for _ = 1 to epochs_per_unit do
        let t0 = now_ns () in
        let d, c, n = stepper.step () in
        if tr then
          steps :=
            { step_name; step_unit = i; t0; t1 = now_ns ();
              execs_in = Replica.take_intervals () }
            :: !steps;
        det := !det + d;
        cyc := !cyc + c;
        ctx := n
      done
    with
    | () ->
      let keys = match stepper.unit_keys with Some k -> k () | None -> [] in
      log := { detections = !det; cycles = !cyc; contexts = !ctx; keys } :: !log;
      Ok ()
    | exception e ->
      log := poisoned :: !log;
      raise e
  in
  { execs = epoch_size * epochs_per_unit;
    granule = 1;
    unit;
    warmup;
    verify =
      (fun ~units ->
        let want, store =
          fleet_reference ~app ~workload ~epoch_size ~epochs_per_unit ~units
        in
        let want =
          if stepper.unit_keys = None then
            Array.map (fun d -> { d with keys = [] }) want
          else want
        in
        let per_unit =
          compare_digests ~got:(Array.of_list (List.rev !log)) ~want
        in
        let final = stepper.final_store () in
        if Persist.keys final = Persist.keys store then per_unit
        else per_unit @ [ (units - 1, "final store keys differ") ]);
    final_store = stepper.final_store;
    history_bytes_per_epoch = stepper.history_bytes_per_epoch;
    step_spans =
      (fun () ->
        let s = List.rev !steps in
        steps := [];
        s);
    sample_users = first_users workload 32 }

let fleet_stepper ~workload t =
  { step =
      (fun () ->
        let n = Workload.rate workload ~epoch_size:fleet_epoch (Fleet.epoch t) in
        let r = Fleet.step t ~arrivals:n in
        ( r.Fleet.sample.Health.detections,
          r.Fleet.epoch_cycles,
          r.Fleet.sample.Health.store_contexts ));
    unit_keys = Some (fun () -> Persist.keys (Fleet.store t));
    final_store = once (fun () -> (Fleet.finish t).Fleet.store);
    history_bytes_per_epoch = (fun () -> 0.0) }

(* [dir] holds the history, status and checkpoint files; the timed
   set-ups run without (see [make_runner]). *)
let serve_config ~workload dir =
  let file name = Option.map (fun d -> Filename.concat d name) dir in
  Serve.config ~domains:1 ~epoch_size:serve_epoch
    ?history_dir:(file "history") ?status_path:(file "status.json")
    ?checkpoint_path:(file "checkpoint.json")
    ~status_every:serve_epochs_per_unit ~checkpoint_every:serve_epochs_per_unit
    workload

let serve_stepper (s, dir) =
  { step =
      (fun () ->
        let o = (Serve.step s).Serve.obs in
        (o.Serve_obs.detections, o.Serve_obs.cycles, o.Serve_obs.store_contexts));
    unit_keys = None;
    final_store = once (fun () -> (Serve.finish s).Fleet.store);
    history_bytes_per_epoch =
      (fun () ->
        float_of_int (dir_bytes (Filename.concat dir "history"))
        /. float_of_int (max 1 (Serve.epoch s))) }

(* ---- set-up ----

   A set-up is what a user pays before the first execution: loading the
   program's units, compiling them for the VM, and starting the fleet or
   the service.  It takes well under a millisecond, so it is timed in
   [setup_samples] batches of [setup_batch] fresh set-ups, each batch
   bracketed by kernel runs like a timed unit.  The last set-up is kept
   and benchmarked.

   The service's timed set-ups run without their files.  Creating the
   history directory and its first segment took 0.1 to 0.7 ms on a shared
   ext4 disk, about as long as the rest of the set-up, and the run
   medians of a file-backed set-up moved by a third from one set of runs
   to the next.
   The benchmarked service is started afterwards, untimed, with its
   files. *)

let setup_samples = 15
let setup_batch = 8

let load_program app =
  let p = Program.load_exn app.Buggy_app.units in
  Engine.precompile p

(* Calibrated and raw seconds per set-up, one of each per batch. *)
type setup_times = { cal : float list; raw : float list }

let make_runner workload ~kernel ~seed =
  let cal = ref [] and raw = ref [] in
  let repeat f =
    let last = ref None in
    let k_prev = ref (Calib.time kernel) in
    for _ = 1 to setup_samples do
      let t0 = now_ns () in
      let batch = List.init setup_batch (fun _ -> f ()) in
      let wall = sec_of_ns (now_ns () - t0) /. float_of_int setup_batch in
      let k = Calib.time kernel in
      cal := (wall /. ((!k_prev +. k) /. 2.0)) :: !cal;
      raw := wall :: !raw;
      k_prev := k;
      last := List.nth_opt batch (setup_batch - 1)
    done;
    Option.get !last
  in
  let runner =
    match workload with
    | Exec_heartbleed ->
      let app = app "heartbleed" in
      repeat (fun () -> load_program app);
      exec_heartbleed ~seed
    | Fleet_zziplib ->
      let app = app "zziplib" and workload = fleet_workload ~seed in
      epoch_runner ~app ~workload ~epoch_size:fleet_epoch
        ~epochs_per_unit:fleet_epochs_per_unit ~warmup:8 ~step_name:"fleet.step"
        ~start:(fun execute ->
          fleet_stepper ~workload
            (repeat (fun () ->
                 load_program app;
                 Fleet.start ~lean:true
                   (Fleet.config ~domains:fleet_domains ~epoch_size:fleet_epoch
                      workload)
                   ~execute)))
    | Serve_zziplib ->
      let app = app "zziplib" and workload = fleet_workload ~seed in
      epoch_runner ~app ~workload ~epoch_size:serve_epoch
        ~epochs_per_unit:serve_epochs_per_unit ~warmup:4 ~step_name:"serve.step"
        ~start:(fun execute ->
          let start dir =
            match Serve.start (serve_config ~workload dir) ~execute with
            | Ok s -> s
            | Error e -> failwith ("Serve.start: " ^ e)
          in
          ignore (repeat (fun () -> load_program app; start None));
          let dir = scratch_dir "serve" in
          serve_stepper (start (Some dir), dir))
  in
  (runner, { cal = !cal; raw = !raw })

(* ---- reporting ---- *)

let quartiles xs =
  let q p = Stats.percentile p xs in
  (q 25.0, q 50.0, q 75.0)

let calibration_line kernels =
  let ms = List.map (fun k -> k *. 1e3) kernels in
  let q1, q2, q3 = quartiles ms in
  Printf.printf
    "calibration kernel: n=%d  min %.4f  p25 %.4f  p50 %.4f  p75 %.4f  max \
     %.4f ms\n"
    (List.length ms)
    (List.fold_left min infinity ms)
    q1 q2 q3
    (List.fold_left max neg_infinity ms);
  print_endline
    (Obs_json.to_string
       (`Assoc
         [ ("calibration_ms",
            `Assoc
              [ ("n", `Int (List.length ms)); ("p25", `Float q1);
                ("p50", `Float q2); ("p75", `Float q3);
                ("min", `Float (List.fold_left min infinity ms));
                ("max", `Float (List.fold_left max neg_infinity ms)) ]) ]))

let cost_deciles costs =
  Printf.printf "unit cost deciles (cal/exec, %d units):" (List.length costs);
  List.iter
    (fun p -> Printf.printf " %.5g" (Stats.percentile p costs))
    [ 10.; 20.; 30.; 40.; 50.; 60.; 70.; 80.; 90.; 100. ];
  print_newline ()

let result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-28s %14.6g %s\n" name v unit)
    metrics;
  print_endline
    (Obs_json.to_string
       (`Assoc
         [ ("correct", `Bool correct); ("attempted", `Int attempted);
           ("failed", `Int failed);
           ("metrics",
            `Assoc
              (List.map
                 (fun (name, v, unit) ->
                   (name, `Assoc [ ("value", `Float v); ("unit", `String unit) ]))
                 metrics)) ]))

(* Distinct failing units, reporting the first. *)
let tally_failures failures =
  let seen = Hashtbl.create 8 in
  List.iter (fun (i, _) -> Hashtbl.replace seen i ()) failures;
  (match List.sort compare failures with
  | (i, why) :: _ -> Printf.printf "first failing unit %d: %s\n" i why
  | [] -> ());
  Hashtbl.length seen

(* A reference that cannot be computed fails the run's last unit rather
   than aborting it. *)
let verify d ~units =
  match d.verify ~units with
  | late -> late
  | exception e -> [ (units - 1, "reference: " ^ Printexc.to_string e) ]

let warm_up d =
  List.filter_map
    (fun i ->
      match run_unit (d.unit ~traced:false) i with
      | Ok () -> None
      | Error why -> Some (i, why))
    (List.init d.warmup Fun.id)

(* ---- --trace 0: the end-to-end metrics ---- *)

let end_to_end workload ~seed ~seconds =
  let kernel = Calib.create () in
  let kernel_clean = Calib.allocated_words kernel = 0.0 in
  let d, setup = make_runner workload ~kernel ~seed in
  let warm = warm_up d in
  let p =
    timed_phase ~kernel ~seconds ~first:d.warmup ~granule:d.granule
      ~execs:d.execs ~lane:(fun _ -> 0)
      ~units:[| d.unit ~traced:false |]
  in
  let late = verify d ~units:(d.warmup + p.units) in
  let failed = tally_failures (warm @ p.failures @ late) in
  if not kernel_clean then
    print_endline "calibration kernel allocated in its timed region";
  let costs = p.costs.(0) in
  calibration_line p.kernels;
  Printf.printf "set-up: raw median %.6f s over %d batches of %d\n"
    (median setup.raw) setup_samples setup_batch;
  cost_deciles costs;
  let execs = float_of_int p.counted_execs in
  result
    ~correct:(failed = 0 && kernel_clean)
    ~attempted:(d.warmup + p.units) ~failed
    [ ("exec_cost_p50", Stats.percentile 50.0 costs, "cal/exec");
      ("exec_cost_p90", Stats.percentile 90.0 costs, "cal/exec");
      ("setup_s", median setup.cal *. Calib.reference_s, "s");
      ("peak_rss_mb", peak_rss_mb (), "MB");
      ("alloc_kw_per_exec", p.alloc_words /. execs /. 1e3, "kwords");
      ("major_kw_per_exec", p.major_words /. execs /. 1e3, "kwords") ]

(* ---- --trace 1: the per-layer metrics ---- *)

(* Fleet/serve step accounting from the executor intervals recorded
   inside each traced step. *)
type steps = {
  n_steps : int;
  step_ns : int;
  busy_ns : int;   (* sum of executor intervals *)
  union_ns : int;  (* wall covered by at least one executor *)
  par_ns : int;    (* first executor start to last executor stop *)
}

let step_accounting steps =
  List.fold_left
    (fun acc st ->
      let ivs =
        List.sort compare
          (List.map
             (fun iv -> (iv.Replica.start_ns, iv.Replica.stop_ns))
             st.execs_in)
      in
      let busy = List.fold_left (fun t (a, b) -> t + (b - a)) 0 ivs in
      let union, _ =
        List.fold_left
          (fun (u, reach) (a, b) ->
            if b <= reach then (u, reach) else (u + (b - max a reach), b))
          (0, min_int) ivs
      in
      let par =
        match ivs with
        | [] -> 0
        | (a, _) :: _ -> List.fold_left (fun m (_, b) -> max m b) 0 ivs - a
      in
      { n_steps = acc.n_steps + 1; step_ns = acc.step_ns + (st.t1 - st.t0);
        busy_ns = acc.busy_ns + busy; union_ns = acc.union_ns + union;
        par_ns = acc.par_ns + par })
    { n_steps = 0; step_ns = 0; busy_ns = 0; union_ns = 0; par_ns = 0 }
    steps

(* Heap-only allocation cost: the baseline configuration's malloc is the
   allocator itself. *)
let baseline_malloc_ns ~app seeds =
  let total = Replica.acc () in
  List.iter
    (fun (seed, input) ->
      let r =
        Replica.run ~app ~config:Config.Baseline ~engine:Engine.Vm ~input ~seed
          ~unit_id:0 ()
      in
      Replica.add_into ~dst:total r.Replica.layers)
    seeds;
  float_of_int total.Replica.malloc_ns
  /. float_of_int (max 1 total.Replica.malloc_calls)

let persist_timings store =
  let dir = scratch_dir "persist" in
  let path = Filename.concat dir "store" in
  let reps = 21 in
  let save =
    List.init reps (fun _ ->
        let t0 = now_ns () in
        Persist.save store path;
        float_of_int (now_ns () - t0) /. 1e3)
  in
  let load =
    List.init reps (fun _ ->
        let t0 = now_ns () in
        ignore (Persist.load path);
        float_of_int (now_ns () - t0) /. 1e3)
  in
  (median save, median load, Persist.count store)

let app_of = function
  | Exec_heartbleed -> app "heartbleed"
  | Fleet_zziplib | Serve_zziplib -> app "zziplib"

let per_layer workload ~name ~seed ~seconds =
  let kernel = Calib.create () in
  let kernel_words = Calib.allocated_words kernel in
  let d, _ = make_runner workload ~kernel ~seed in
  let app = app_of workload in
  let replica_check = check_replica ~app d.sample_users in
  (match replica_check with
  | Ok () -> print_endline "replica self-check: identical to Execution.run"
  | Error e -> Printf.printf "replica self-check FAILED: %s\n" e);
  Printf.printf "calibration kernel allocates %.0f words in its timed region\n"
    kernel_words;
  let alloc_malloc_ns = baseline_malloc_ns ~app d.sample_users in
  let warm = warm_up d in
  let g0 = Gc.quick_stat () in
  let untraced = d.unit ~traced:false and traced = d.unit ~traced:true in
  let p =
    timed_phase ~kernel ~seconds ~first:d.warmup ~granule:(max 2 d.granule)
      ~execs:d.execs ~lane:(fun i -> i land 1)
      ~units:[| untraced; traced |]
  in
  let g1 = Gc.quick_stat () in
  let late = verify d ~units:(d.warmup + p.units) in
  let steps = d.step_spans () in
  let st = step_accounting steps in
  let save_us, load_us, keys = persist_timings (d.final_store ()) in
  let history_bytes = d.history_bytes_per_epoch () in
  let failed = tally_failures (warm @ p.failures @ late) in
  (* Spans, in the trace-event shape of [fleet --trace-out]. *)
  let spans = Replica.spans () in
  let origin = List.fold_left (fun m s -> min m s.Replica.t0) max_int spans in
  let origin = List.fold_left (fun m st -> min m st.t0) origin steps in
  let step_spans =
    List.mapi
      (fun k st ->
        { Replica.id = -(k + 1); parent = 0; name = st.step_name;
          unit_id = st.step_unit; track = fleet_domains; t0 = st.t0;
          t1 = st.t1 })
      steps
  in
  let trace_file =
    Filename.concat out_dir (Printf.sprintf "%s-seed%d.trace.json" name seed)
  in
  mkdir_p out_dir;
  Out_channel.with_open_text trace_file (fun oc ->
      output_string oc
        (Obs_json.to_string
           (Replica.chrome_json ~domains:fleet_domains ~origin
              (step_spans @ spans)));
      output_char oc '\n');
  Printf.printf "trace: %d spans written to %s\n"
    (List.length spans + List.length steps)
    trace_file;
  Printf.printf "persist: final store of %d key%s\n" keys
    (if keys = 1 then "" else "s");
  calibration_line p.kernels;
  let t = Replica.total in
  let execs = float_of_int (max 1 t.Replica.execs) in
  let per_exec_us ns = float_of_int ns /. execs /. 1e3 in
  let per_call ns calls = float_of_int ns /. float_of_int (max 1 calls) in
  let malloc_ns = per_call t.Replica.malloc_ns t.Replica.malloc_calls in
  let all_execs = float_of_int (p.units * d.execs) in
  let steps_f = float_of_int (max 1 st.n_steps) in
  let step_ms ns = float_of_int ns /. steps_f /. 1e6 in
  let is_fleet = workload = Fleet_zziplib and is_serve = workload = Serve_zziplib in
  let untraced_p50 = Stats.percentile 50.0 p.costs.(0) in
  let traced_p50 = Stats.percentile 50.0 p.costs.(1) in
  let untraced_wall = List.fold_left ( +. ) 0.0 p.walls.(0) in
  let width = min fleet_domains d.execs in
  result
    ~correct:(failed = 0 && replica_check = Ok () && kernel_words = 0.0)
    ~attempted:(d.warmup + p.units) ~failed
    [ ("machine.create_us", per_exec_us t.Replica.create_ns, "us");
      ("machine.release_us", per_exec_us t.Replica.release_ns, "us");
      ("machine.accesses", float_of_int t.Replica.accesses /. execs, "count");
      ("machine.traps", float_of_int t.Replica.traps /. execs, "count");
      ("machine.syscalls", float_of_int t.Replica.syscalls /. execs, "count");
      ("core.instantiate_us", per_exec_us t.Replica.instantiate_ns, "us");
      ("core.malloc_ns", malloc_ns, "ns");
      ("core.free_ns", per_call t.Replica.free_ns t.Replica.free_calls, "ns");
      ("core.malloc_words",
       per_call t.Replica.malloc_words t.Replica.malloc_calls, "words");
      ("core.malloc_calls", float_of_int t.Replica.malloc_calls /. execs, "count");
      ("core.free_calls", float_of_int t.Replica.free_calls /. execs, "count");
      ("core.finish_us", per_exec_us t.Replica.finish_ns, "us");
      ("alloc.malloc_ns", alloc_malloc_ns, "ns");
      ("core.malloc_marginal_ns", malloc_ns -. alloc_malloc_ns, "ns");
      ("minic.run_self_us",
       per_exec_us (t.Replica.run_ns - t.Replica.malloc_ns - t.Replica.free_ns),
       "us");
      ("minic.run_words",
       float_of_int
         (t.Replica.run_words - t.Replica.malloc_words - t.Replica.free_words)
       /. execs,
       "words");
      ("fleet.step_ms", (if is_fleet then step_ms st.step_ns else 0.0), "ms");
      ("fleet.exec_busy_ms",
       (if is_fleet || is_serve then step_ms st.busy_ns else 0.0), "ms");
      ("fleet.self_ms",
       (if is_fleet then step_ms (st.step_ns - st.union_ns) else 0.0), "ms");
      ("pool.utilisation",
       (if st.par_ns > 0 then
          float_of_int st.busy_ns /. float_of_int (width * st.par_ns)
        else 0.0),
       "ratio");
      ("serve.self_ms",
       (if is_serve then step_ms (st.step_ns - st.union_ns) else 0.0), "ms");
      ("serve.history_bytes", history_bytes, "bytes");
      ("persist.save_us", save_us, "us");
      ("persist.load_us", load_us, "us");
      ("gc.minor_collections",
       float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections)
       /. all_execs *. 1e3,
       "count");
      ("gc.major_collections",
       float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)
       /. all_execs *. 1e3,
       "count");
      ("host.execs_per_s",
       float_of_int (List.length p.walls.(0) * d.execs) /. untraced_wall, "1/s");
      ("host.calib_ms_p50", Stats.percentile 50.0 p.kernels *. 1e3, "ms");
      ("trace.overhead", traced_p50 /. untraced_p50, "ratio") ]

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0
  and trace = ref (-1) in
  let spec =
    [ ("--workload", Arg.Set_string workload,
       "W  " ^ String.concat "|" (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N  input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S  timed phase length");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run") ]
  in
  let usage = "perfbench --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("unknown workload; " ^ usage);
    exit 2
  | Some _ when !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) ->
    prerr_endline usage;
    exit 2
  | Some w ->
    Fun.protect
      ~finally:(fun () -> rm_rf (tmp_root ()))
      (fun () ->
        if !trace = 1 then per_layer w ~name:!workload ~seed:!seed ~seconds:!seconds
        else end_to_end w ~seed:!seed ~seconds:!seconds)
