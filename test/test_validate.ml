(* JSONL validation: every described schema's real emitter output passes
   [Validate], and one bad line per check fails with that check's error.
   The last test feeds byte-mutated and truncated inputs to every decoder
   and to the validator's line check: they may reject, never raise. *)

let index_of s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let contains s sub = index_of s sub <> None

let jsonl lines = String.concat "" (List.map (fun l -> l ^ "\n") lines)
let render js = jsonl (List.map Obs_json.to_string js)

let accepts ?schema what data =
  match Validate.contents ?schema ~name:what data with
  | Ok n -> n
  | Error m -> Alcotest.failf "%s rejected: %s" what m

let rejects ?schema ~expect data =
  match Validate.contents ?schema ~name:"t" data with
  | Ok _ -> Alcotest.failf "accepted (expected %S):\n%s" expect data
  | Error m ->
    if not (contains m expect) then
      Alcotest.failf "error %S does not mention %S" m expect

let parse line =
  match Obs_json.of_string line with
  | Ok j -> j
  | Error m -> Alcotest.failf "template does not parse: %s" m

(* Field edits on a JSON object: replace (or append) and remove. *)
let set k v (j : Obs_json.t) : Obs_json.t =
  match j with
  | `Assoc kv when List.mem_assoc k kv ->
    `Assoc (List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) kv)
  | `Assoc kv -> `Assoc (kv @ [ (k, v) ])
  | j -> j

let drop k (j : Obs_json.t) : Obs_json.t =
  match j with `Assoc kv -> `Assoc (List.remove_assoc k kv) | j -> j

let member k j = Option.get (Obs_json.member k j)

(* Each case: a mutation of the template and the error it must raise. *)
let bad_rows ~schema template cases =
  List.iter
    (fun (edit, expect) -> rejects ~schema ~expect (render [ edit template ]))
    cases

(* ---- line hygiene ---- *)

let resilience_row =
  {|{"schema":"csod.bench.resilience/1","app":"Zziplib","config":"CSOD (near-FIFO)","users":300,"benign_frac":0.25,"domains":2,"epoch_size":32,"fault_rate":0,"faults":"seed=7","detections":209,"detection_rate":0.920704845815,"degraded_executions":0,"faults_injected":0,"worker_crashes":0,"store_contexts":1,"wall_seconds":0.0293700695038}|}

let survival_row =
  {|{"schema":"csod.bench.respond/1","metric":"survival","app":"Gzip","mode":"oblivious","runs":10,"survived":10,"survival_rate":1,"detections":10,"redirected_reads":0,"redirected_writes":80,"escapes":0}|}

let test_line_hygiene () =
  Alcotest.(check int) "two lines" 2
    (accepts "plain" (jsonl [ {|{"a":1}|}; {|{"b":[1,2]}|} ]));
  Alcotest.(check int) "empty stream without a schema" 0 (accepts "empty" "");
  rejects ~expect:"t:2: truncated final line (no newline)"
    ({|{"a":1}|} ^ "\n" ^ {|{"a":2}|});
  rejects ~expect:"t:2: empty line" (jsonl [ {|{"a":1}|}; "" ]);
  rejects ~expect:"t:1: invalid JSON" (jsonl [ {|{"a":|} ]);
  rejects ~expect:"t:1: line is not a JSON object" (jsonl [ "[1,2]" ]);
  rejects ~schema:"csod.bench.resilience/1"
    ~expect:"t: empty stream (expected csod.bench.resilience/1 rows)" "";
  rejects ~schema:"csod.bench.resilience/1"
    ~expect:"t:1: missing schema tag, expected 'csod.bench.resilience/1'"
    (jsonl [ {|{"a":1}|} ])

(* The stream that kept CI's resilience step red: respond rows appended
   to the resilience curve.  Each half passes under its own tag. *)
let test_mixed_stream_fails_under_schema () =
  let mixed = jsonl [ resilience_row; survival_row ] in
  Alcotest.(check int) "untagged check passes both" 2 (accepts "mixed" mixed);
  rejects ~schema:"csod.bench.resilience/1"
    ~expect:
      "t:2: schema 'csod.bench.respond/1', expected 'csod.bench.resilience/1'"
    mixed;
  ignore
    (accepts ~schema:"csod.bench.respond/1" "respond" (jsonl [ survival_row ]))

(* Described rows are checked by their tag even without --schema. *)
let test_tag_dispatch_without_schema () =
  rejects ~expect:"t:1: detection_rate out of [0, 1]"
    (render [ set "detection_rate" (`Float 1.5) (parse resilience_row) ])

(* ---- csod.fleet.health/1 (Health.of_json) ---- *)

let health_lines () =
  let app = Option.get (Buggy_app.by_name "Zziplib") in
  let r =
    Fleet.run
      (Fleet.config ~domains:2 ~epoch_size:16 (Workload.make ~users:64 ()))
      ~execute:(Execution.executor ~app ~config:Config.csod_default ())
  in
  List.map Health.to_json r.Fleet.health

let test_health () =
  let lines = health_lines () in
  Alcotest.(check int) "one line per epoch" (List.length lines)
    (accepts ~schema:Health.schema "health" (render lines));
  let first = List.hd lines in
  (* Obs_json prints 1.0 as 1, so a number field takes an int. *)
  ignore
    (accepts ~schema:Health.schema "int cdf"
       (render [ set "cdf" (`Int 0) first ]));
  bad_rows ~schema:Health.schema first
    [ (drop "users", "missing field 'users'");
      (set "epoch" (`Bool true), "field 'epoch' has type bool");
      (set "epoch" (`Float 1.5), "field 'epoch' has type float");
      (set "faults" (`List []), "field 'faults' has type list");
      (set "telemetry" (`Int 1), "field 'telemetry' has type int");
      (set "domains" (`Assoc []), "field 'domains' has type dict");
      (set "cdf" (`Float 1.5), "cdf out of [0, 1]");
      (set "cdf" (`Float (-0.1)), "cdf out of [0, 1]") ]

(* ---- csod.fleet.alert/1 and csod.serve.history/1 ---- *)

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

(* A small mostly-benign service whose stall rule flaps: it fires and
   clears several times. *)
let serve_run () =
  let dir = temp_dir "csod_validate" in
  let app = Option.get (Buggy_app.by_name "Gzip") in
  let cfg =
    Serve.config ~domains:2 ~epoch_size:2
      ~rules:(Result.get_ok (Alert.parse "stall@3")) ~history_dir:dir
      ~rotate:25
      (Workload.make ~base_seed:11 ~benign_frac:0.7 ~users:300 ())
  in
  match
    Serve.start cfg
      ~execute:(Execution.executor ~app ~config:Config.csod_default ())
  with
  | Error m -> Alcotest.fail m
  | Ok t ->
    let events = ref [] in
    while Serve.epoch t < 60 do
      events := List.rev_append (Serve.step t).Serve.events !events
    done;
    ignore (Serve.finish t);
    (dir, List.rev_map Alert.event_to_json !events)

let alert_tag = Alert.description.Jsonl_schema.tag

let test_alert () =
  let _, events = serve_run () in
  let fires =
    List.filter (fun e -> member "state" e = `String "fire") events
  in
  Alcotest.(check bool) "the stall rule fired more than once" true
    (List.length fires > 1);
  ignore (accepts ~schema:alert_tag "alerts" (render events));
  let fire = List.hd events in
  let clear = List.nth events 1 in
  Alcotest.(check bool) "fire then clear" true
    (member "state" clear = `String "clear");
  bad_rows ~schema:alert_tag fire
    [ (drop "spec", "missing field 'spec'");
      (set "window" (`Int 3), "field 'window' has type int");
      (set "state" (`String "firing"), "unknown alert state 'firing'");
      ( (fun j -> set "window" (drop "last_epoch" (member "window" j)) j),
        "alert window: missing field 'last_epoch'" );
      ( (fun j -> set "window" (set "epochs" (`Int 0) (member "window" j)) j),
        "alert window covers 0 epochs" );
      ( (fun j ->
          set "window" (set "last_epoch" (`Int 1000) (member "window" j)) j),
        "outside epoch" );
      ( (fun j ->
          set "window" (set "first_epoch" (`Int 1000) (member "window" j)) j),
        "outside epoch" );
      (set "since" (`Int 0), "fire event since 0 != epoch") ];
  (* A clear needs a fire before it (a fresh stream has none). *)
  rejects ~schema:alert_tag ~expect:"stall@3 cleared without firing"
    (render [ clear ]);
  rejects ~schema:alert_tag ~expect:"t:2: stall@3 fired twice without clearing"
    (render [ fire; fire ]);
  rejects ~schema:alert_tag ~expect:"clear event since -1 outside [0, "
    (render [ fire; set "since" (`Int (-1)) clear ]);
  rejects ~schema:alert_tag ~expect:"clear event since 999 outside [0, "
    (render [ fire; set "since" (`Int 999) clear ])

let history_line ~seq kind body =
  History.line { History.seq; kind; body }

(* Change the stored checksum's first hex digit. *)
let flip_crc line =
  let key = {|"crc":"|} in
  let i = Option.get (index_of line key) + String.length key in
  String.mapi
    (fun j c -> if j <> i then c else if c = '0' then '1' else '0')
    line

let test_history () =
  let dir, _ = serve_run () in
  let segments = History.segments dir in
  Alcotest.(check bool) "rotated into several segments" true
    (List.length segments > 1);
  let read f = In_channel.with_open_bin f In_channel.input_all in
  (* The whole history is one contiguous stream; each later segment on
     its own starts mid-stream, where a first clear is legal. *)
  ignore
    (accepts ~schema:History.schema "history"
       (String.concat "" (List.map read segments)));
  List.iter
    (fun f -> ignore (accepts ~schema:History.schema f (read f)))
    segments;
  let lines = String.split_on_char '\n' (read (List.hd segments)) in
  let line i = List.nth lines i in
  let records =
    List.filter_map (fun l -> Result.to_option (History.parse_line l)) lines
  in
  let body kind ?state () =
    (List.find
       (fun (r : History.record) ->
         r.History.kind = kind
         && Option.fold state ~none:true ~some:(fun s ->
                member "state" r.History.body = `String s))
       records)
      .History.body
  in
  let fire = body History.Alert ~state:"fire" ()
  and clear = body History.Alert ~state:"clear" ()
  and health = body History.Health () in
  let hist ?(schema = History.schema) ~expect ls =
    rejects ~schema ~expect (jsonl ls)
  in
  hist ~expect:"t:2: seq 2, expected 1" [ line 0; line 2 ];
  hist ~expect:"t:1: seq 0: checksum mismatch" [ flip_crc (line 0) ];
  hist ~expect:"unknown history kind 'note'"
    [ Obs_json.to_string (set "kind" (`String "note") (parse (line 0))) ];
  hist ~expect:"field 'body' has type list"
    [ Obs_json.to_string (set "body" (`List []) (parse (line 0))) ];
  hist ~expect:"alert body: stall@3 fired twice without clearing"
    [ history_line ~seq:0 History.Alert fire;
      history_line ~seq:1 History.Alert fire ];
  hist ~expect:"alert body: stall@3 cleared without firing"
    [ history_line ~seq:0 History.Alert clear ];
  (* Mid-segment rule: past seq 0 the fire may lie in an earlier segment. *)
  ignore
    (accepts ~schema:History.schema "mid-segment clear"
       (jsonl [ history_line ~seq:5 History.Alert clear ]));
  hist ~expect:"alert body: missing schema tag, expected 'csod.fleet.alert/1'"
    [ history_line ~seq:0 History.Alert (drop "schema" fire) ];
  hist ~expect:"alert body: alert window covers 0 epochs"
    [ history_line ~seq:0 History.Alert
        (set "window" (set "epochs" (`Int 0) (member "window" fire)) fire) ];
  hist ~expect:"health body: cdf out of [0, 1]"
    [ history_line ~seq:0 History.Health (set "cdf" (`Float 2.0) health) ];
  hist ~expect:"health body: missing field 'cumulative'"
    [ history_line ~seq:0 History.Health (drop "cumulative" health) ];
  hist ~expect:"health body: field 'arrivals' has type bool"
    [ history_line ~seq:0 History.Health (set "arrivals" (`Bool false) health) ]

(* ---- csod.sim.repro/1 (Sim.of_json + alphabet op names) ---- *)

let repro_of pack =
  match Sim.run_packed pack ~seed:1 ~runs:20 ~ops:60 with
  | f :: _ -> Sim.to_json f
  | [] -> Alcotest.fail "planted bug never found"

let test_repro () =
  let repros =
    [ repro_of (Sim_store.alphabet ~buggy_merge:true ());
      repro_of (Sim_fleet.alphabet ~plant:true ());
      repro_of (Sim_respond.alphabet ~plant:true ()) ]
  in
  Alcotest.(check int) "three repros" 3
    (accepts ~schema:Sim.schema "repros" (render repros));
  let r = List.hd repros in
  let ops = match member "ops" r with `List l -> l | _ -> [] in
  let n = List.length ops in
  let op0 = List.hd ops in
  let with_op0 op = set "ops" (`List (op :: List.tl ops)) in
  bad_rows ~schema:Sim.schema r
    [ ( with_op0 (set "op" (`String "fly") op0),
        "op 0 'fly' is not in the store-buggy-merge alphabet" );
      (set "alphabet" (`String "nope"), "unknown alphabet 'nope'");
      ( (fun j -> set "failed_at" (`Int 0) (set "ops" (`List []) j)),
        "empty op sequence" );
      ( with_op0 (set "args" (`List [ `String "1" ]) op0),
        "op 0 args are not a list of ints" );
      ( with_op0 (set "args" (`List [ `Bool true ]) op0),
        "op 0 args are not a list of ints" );
      (with_op0 (`Int 3), "op 0 is not an object");
      ( set "failed_at" (`Int n),
        Printf.sprintf "failed_at %d outside the %d-op sequence" n n );
      (set "failed_at" (`Int (-1)), "failed_at -1 outside");
      ( set "replay_hash" (`String "ABCDEF0123456789"),
        "replay_hash 'ABCDEF0123456789' is not 16 lowercase hex digits" );
      (set "replay_hash" (`String "abc"), "is not 16 lowercase hex digits");
      ( set "shrunk_from" (`Int (n - 1)),
        Printf.sprintf "shrunk_from %d below the kept %d ops" (n - 1) n );
      (drop "shrunk_from", "missing field 'shrunk_from'");
      (set "seed" (`Float 1.5), "field 'seed' has type float") ]

(* ---- csod.respond.event/1 ---- *)

let test_respond_event () =
  let app = Option.get (Buggy_app.by_name "Heartbleed") in
  let buf = Buffer.create 4096 in
  ignore
    (Event_sink.with_sink (Event_sink.to_buffer buf) (fun () ->
         Execution.run ~app ~config:Config.csod_default ~seed:1
           ~respond:Respond.Oblivious ()));
  let events =
    List.filter
      (fun l -> contains l Respond.schema)
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  Alcotest.(check bool) "redirects recorded" true (events <> []);
  ignore (accepts ~schema:Respond.schema "respond" (jsonl events));
  (* The whole --events stream checks its respond lines by tag. *)
  ignore (accepts "events" (Buffer.contents buf));
  bad_rows ~schema:Respond.schema (parse (List.hd events))
    [ (set "kind" (`String "reroute"), "unknown respond event kind 'reroute'");
      (set "source" (`String "gdb"), "unknown respond source 'gdb'");
      ( set "ctx" (`List [ `Int 1 ]),
        "respond ctx [1] is not an [int, int] pair" );
      ( set "ctx" (`List [ `Int 1; `Bool true ]),
        "respond ctx [1,true] is not an [int, int] pair" );
      (set "ctx" (`Int 1), "field 'ctx' has type int");
      (drop "at_sec", "missing field 'at_sec'") ]

(* ---- bench rows (bench/main.exe; its dune rule validates real output) ---- *)

let test_bench_rows () =
  let throughput =
    parse
      {|{"schema":"csod.bench.throughput/1","op":"read","mode":"serial","iters":2000000,"ns_per_op":43.8,"ops_per_sec":22817017.4,"baseline_ns_per_op":186.0,"baseline_ops_per_sec":5374060.8,"speedup":4.2}|}
  in
  bad_rows ~schema:"csod.bench.throughput/1" throughput
    [ (drop "speedup", "missing field 'speedup'");
      (set "iters" (`Float 2.5), "field 'iters' has type float") ];
  let exec =
    parse
      {|{"schema":"csod.bench.exec/1","workload":"kernel-mix","kind":"kernel","mode":"serial","runs":10,"cycles":1760008,"deterministic":true,"interp_wall_seconds":1.4,"vm_wall_seconds":0.29,"interp_execs_per_sec":7.04,"vm_execs_per_sec":34.5,"speedup":4.9}|}
  in
  ignore (accepts ~schema:"csod.bench.exec/1" "exec" (render [ exec ]));
  bad_rows ~schema:"csod.bench.exec/1" exec
    ([ (set "kind" (`String "lib"), "unknown exec workload kind 'lib'");
       (set "mode" (`String "batch"), "unknown exec mode 'batch'");
       (set "runs" (`Int 0), "non-positive run count");
       (drop "deterministic", "missing field 'deterministic'");
       (set "deterministic" (`Int 1), "field 'deterministic' has type int") ]
    @ List.map
        (fun k -> (set k (`Int 0), "non-positive " ^ k))
        [ "interp_wall_seconds"; "vm_wall_seconds"; "interp_execs_per_sec";
          "vm_execs_per_sec"; "speedup" ]);
  let resilience = parse resilience_row in
  bad_rows ~schema:"csod.bench.resilience/1" resilience
    [ (set "detection_rate" (`Float 1.01), "detection_rate out of [0, 1]");
      (set "faults" (`Null), "field 'faults' has type NoneType");
      (drop "wall_seconds", "missing field 'wall_seconds'") ];
  let survival = parse survival_row in
  let overhead =
    parse
      {|{"schema":"csod.bench.respond/1","metric":"overhead","app":"Memcached","mode":"oblivious","runs":30,"ns_per_op":1509.3,"baseline_ns_per_op":1346.7,"overhead_frac":0.14}|}
  in
  ignore
    (accepts ~schema:"csod.bench.respond/1" "respond"
       (render [ survival; overhead ]));
  bad_rows ~schema:"csod.bench.respond/1" survival
    [ (set "metric" (`String "speed"), "unknown respond bench metric 'speed'");
      (drop "escapes", "survival row: missing field 'escapes'");
      ( set "survived" (`Float 1.5),
        "survival row: field 'survived' has type float" );
      (set "survived" (`Int 11), "survived 11 outside [0, 10]");
      (set "survived" (`Int (-1)), "survived -1 outside [0, 10]");
      (set "survival_rate" (`Float 1.2), "survival_rate out of [0, 1]");
      (drop "runs", "missing field 'runs'") ];
  bad_rows ~schema:"csod.bench.respond/1" overhead
    [ (drop "overhead_frac", "overhead row: missing field 'overhead_frac'");
      (set "baseline_ns_per_op" (`Int 0), "non-positive baseline_ns_per_op") ];
  let fleet =
    parse
      {|{"schema":"csod.bench.fleet/1","app":"Zziplib","config":"CSOD (near-FIFO)","users":1000,"epoch_size":32,"benign_frac":0.25,"domains":2,"detections":738,"first_catch":{"uid":15,"epoch":0},"store_contexts":1,"deterministic":true,"wall_seconds_serial":0.12,"wall_seconds_parallel":0.25,"speedup":0.48}|}
  in
  ignore (accepts ~schema:"csod.bench.fleet/1" "fleet" (render [ fleet ]));
  bad_rows ~schema:"csod.bench.fleet/1" fleet
    [ (drop "deterministic", "missing field 'deterministic'");
      (set "detections" (`String "738"), "field 'detections' has type str") ]

(* ---- decoder robustness ---- *)

(* Valid inputs of every decoder, mutated byte-wise and truncated. *)
let corpus () =
  let repro =
    Obs_json.to_string (repro_of (Sim_store.alphabet ~buggy_merge:true ()))
  in
  [ ("json", {|{"a":[1,2.5e3,"xé\n",true,null,{"b":-0}]}|});
    ("fault plan", "seed=7,ebusy=0.3,trap-drop=0.1,worker-crash@5");
    ( "history",
      history_line ~seq:3 History.Meta
        (`Assoc [ ("app", `String "Gzip"); ("users", `Int 3) ]) );
    ("repro", repro);
    ("resilience", resilience_row);
    ( "program",
      "fn f(a, b) { var x = a * 31 + b; return x ^ (x >> 7); }\n\
       fn main() { var p = malloc(16); var i = 0;\n\
       while (i < input(0)) { p[i] = f(i, 2); i = i + 1; }\n\
       if (i > 3) { print(\"big\", i); } free(p); return 0; }\n" ) ]

let mutate st s =
  let s = Bytes.of_string s in
  let n = Bytes.length s in
  let s =
    if n = 0 then s
    else
      match Random.State.int st 4 with
      | 0 ->
        let c = Char.chr (Random.State.int st 256) in
        Bytes.set s (Random.State.int st n) c;
        s
      | 1 -> Bytes.sub s 0 (Random.State.int st n)
      | 2 ->
        let i = Random.State.int st n in
        Bytes.cat (Bytes.sub s 0 i) (Bytes.sub s (i + 1) (n - i - 1))
      | _ ->
        let i = Random.State.int st n in
        let c = "{}[]\",:0-.e\\u\n" in
        Bytes.concat
          (Bytes.make 1 c.[Random.State.int st (String.length c)])
          [ Bytes.sub s 0 i; Bytes.sub s i (n - i) ]
  in
  Bytes.to_string s

let decoders =
  let ok r = Result.is_ok r in
  let program source =
    [ { Program.file = "m.mc"; module_name = "m"; source } ]
  in
  [ ("Obs_json.of_string", fun s -> ok (Obs_json.of_string s));
    ("Fault_plan.of_string", fun s -> ok (Fault_plan.of_string s));
    ("History.parse_line", fun s -> ok (History.parse_line s));
    ("Program.load", fun s -> ok (Program.load (program s)));
    ("Validate.line", fun s -> ok (Validate.line (Validate.create ()) s));
    ( "Validate.contents",
      fun s -> ok (Validate.contents ~schema:Sim.schema ~name:"m" s) ) ]

let prop_decoders_never_raise =
  let corpus = lazy (corpus ()) in
  QCheck.Test.make ~name:"decoders reject mutated input without raising"
    ~count:300
    QCheck.(pair small_nat int)
    (fun (rounds, seed) ->
      let st = Random.State.make [| seed |] in
      List.for_all
        (fun (what, input) ->
          let s = ref input in
          for _ = 0 to rounds mod 6 do
            s := mutate st !s
          done;
          List.for_all
            (fun (name, decode) ->
              match decode !s with
              | _ -> true
              | exception e ->
                QCheck.Test.fail_reportf "%s raised %s on a mutated %s: %S" name
                  (Printexc.to_string e) what !s)
            decoders)
        (Lazy.force corpus))

(* The unmutated corpus decodes: the property explores the neighbourhood
   of valid inputs, not of garbage. *)
let test_corpus_valid () =
  List.iter
    (fun (what, input) ->
      let expected =
        match what with
        | "json" -> [ "Obs_json.of_string" ]
        | "fault plan" -> [ "Fault_plan.of_string" ]
        | "history" -> [ "Obs_json.of_string"; "History.parse_line" ]
        | "program" -> [ "Program.load" ]
        | _ -> [ "Obs_json.of_string"; "Validate.line" ]
      in
      List.iter
        (fun name ->
          Alcotest.(check bool) (what ^ " decodes with " ^ name) true
            ((List.assoc name decoders) input))
        expected)
    (corpus ())

let suite =
  [ Alcotest.test_case "line hygiene + empty stream under --schema" `Quick
      test_line_hygiene;
    Alcotest.test_case "mixed resilience+respond stream fails --schema" `Quick
      test_mixed_stream_fails_under_schema;
    Alcotest.test_case "described rows checked by tag alone" `Quick
      test_tag_dispatch_without_schema;
    Alcotest.test_case "fleet health: real stream + bad rows" `Quick
      test_health;
    Alcotest.test_case "alert: real transitions + bad rows" `Quick test_alert;
    Alcotest.test_case "serve history: real segments + bad lines" `Quick
      test_history;
    Alcotest.test_case "sim repro: real repros + bad rows" `Quick test_repro;
    Alcotest.test_case "respond event: real redirects + bad rows" `Quick
      test_respond_event;
    Alcotest.test_case "bench rows: bad rows per check" `Quick test_bench_rows;
    Alcotest.test_case "robustness corpus decodes" `Quick test_corpus_valid;
    QCheck_alcotest.to_alcotest prop_decoders_never_raise ]
