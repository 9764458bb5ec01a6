type kind = Int | Num | Str | Bool | List | Obj

let ( let* ) = Result.bind

let type_name : Obs_json.t -> string = function
  | `Null -> "NoneType"
  | `Bool _ -> "bool"
  | `Int _ -> "int"
  | `Float _ -> "float"
  | `String _ -> "str"
  | `List _ -> "list"
  | `Assoc _ -> "dict"

let typed conv key json =
  match Obs_json.member key json with
  | None -> Error (Printf.sprintf "missing field '%s'" key)
  | Some v ->
    Option.to_result (conv v)
      ~none:(Printf.sprintf "field '%s' has type %s" key (type_name v))

let int = typed (function `Int n -> Some n | _ -> None)

let num =
  typed (function `Int n -> Some (float n) | `Float f -> Some f | _ -> None)

let str = typed (function `String s -> Some s | _ -> None)
let bool = typed (function `Bool b -> Some b | _ -> None)
let list = typed (function `List l -> Some l | _ -> None)
let obj = typed (function `Assoc kv -> Some kv | _ -> None)

let each f items =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
      let* y = f i x in
      go (i + 1) (y :: acc) rest
  in
  go 0 [] items

let counters key json =
  let* kvs = obj key json in
  let tally _ (k, v) =
    Result.map (fun n -> (k, n)) (int k (`Assoc [ (k, v) ]))
  in
  each tally kvs

let tagged tag json =
  match Obs_json.member "schema" json with
  | Some (`String s) when s = tag -> Ok ()
  | Some (`String s) ->
    Error (Printf.sprintf "schema '%s', expected '%s'" s tag)
  | _ -> Error (Printf.sprintf "missing schema tag, expected '%s'" tag)

let fraction name v =
  if 0.0 <= v && v <= 1.0 then Ok ()
  else Error (Printf.sprintf "%s out of [0, 1]" name)

let one_of ~what values v =
  if List.mem v values then Ok ()
  else Error (Printf.sprintf "unknown %s '%s'" what v)

type t = {
  tag : string;
  fields : (string * kind) list;
  row : Obs_json.t -> (unit, string) result;
}

let check_fields fields json =
  let field _ (key, kind) =
    let ok r = Result.map ignore r in
    match kind with
    | Int -> ok (int key json) | Num -> ok (num key json)
    | Str -> ok (str key json) | Bool -> ok (bool key json)
    | List -> ok (list key json) | Obj -> ok (obj key json)
  in
  Result.map ignore (each field fields)

let check d json =
  let* () = check_fields d.fields json in
  d.row json

let no_row _ = Ok ()

let positive json key =
  let* v = num key json in
  if v > 0.0 then Ok () else Error ("non-positive " ^ key)

(* ---- bench rows (bench/main.ml emits them) ---- *)

let bench_throughput =
  { tag = "csod.bench.throughput/1";
    fields =
      [ ("op", Str); ("mode", Str); ("iters", Int); ("ns_per_op", Num);
        ("ops_per_sec", Num); ("baseline_ns_per_op", Num);
        ("baseline_ops_per_sec", Num); ("speedup", Num) ];
    row = no_row }

let exec_rates =
  [ "interp_wall_seconds"; "vm_wall_seconds"; "interp_execs_per_sec";
    "vm_execs_per_sec"; "speedup" ]

let bench_exec =
  { tag = "csod.bench.exec/1";
    fields =
      [ ("workload", Str); ("kind", Str); ("mode", Str); ("runs", Int);
        ("cycles", Int); ("deterministic", Bool) ]
      @ List.map (fun k -> (k, Num)) exec_rates;
    row =
      (fun json ->
        let* kind = str "kind" json in
        let* () = one_of ~what:"exec workload kind" [ "app"; "kernel" ] kind in
        let* mode = str "mode" json in
        let* () = one_of ~what:"exec mode" [ "serial"; "metrics" ] mode in
        let* runs = int "runs" json in
        if runs < 1 then Error "non-positive run count"
        else Result.map ignore (each (fun _ -> positive json) exec_rates)) }

let bench_resilience =
  { tag = "csod.bench.resilience/1";
    fields =
      [ ("app", Str); ("config", Str); ("users", Int); ("domains", Int);
        ("fault_rate", Num); ("faults", Str); ("detections", Int);
        ("detection_rate", Num); ("degraded_executions", Int);
        ("faults_injected", Int); ("worker_crashes", Int);
        ("store_contexts", Int); ("wall_seconds", Num) ];
    row =
      (fun json ->
        Result.bind (num "detection_rate" json) (fraction "detection_rate")) }

(* Survival rows carry the redirect tallies, the overhead row the paired
   timings. *)
let respond_metrics =
  [ ( "survival",
      [ ("survived", Int); ("survival_rate", Num); ("detections", Int);
        ("redirected_reads", Int); ("redirected_writes", Int);
        ("escapes", Int) ] );
    ( "overhead",
      [ ("ns_per_op", Num); ("baseline_ns_per_op", Num);
        ("overhead_frac", Num) ] ) ]

let bench_respond =
  { tag = "csod.bench.respond/1";
    fields = [ ("metric", Str); ("app", Str); ("mode", Str); ("runs", Int) ];
    row =
      (fun json ->
        let* metric = str "metric" json in
        let* () =
          one_of ~what:"respond bench metric" (List.map fst respond_metrics)
            metric
        in
        let* () =
          Result.map_error (fun e -> metric ^ " row: " ^ e)
            (check_fields (List.assoc metric respond_metrics) json)
        in
        if metric = "overhead" then positive json "baseline_ns_per_op"
        else
          let* survived = int "survived" json in
          let* runs = int "runs" json in
          if survived < 0 || survived > runs then
            Error (Printf.sprintf "survived %d outside [0, %d]" survived runs)
          else
            Result.bind (num "survival_rate" json) (fraction "survival_rate")) }

let bench_fleet =
  { tag = "csod.bench.fleet/1";
    fields =
      [ ("app", Str); ("config", Str); ("users", Int); ("epoch_size", Int);
        ("benign_frac", Num); ("domains", Int); ("detections", Int);
        ("store_contexts", Int); ("deterministic", Bool);
        ("wall_seconds_serial", Num); ("wall_seconds_parallel", Num);
        ("speedup", Num) ];
    row = no_row }

let bench =
  [ bench_throughput; bench_exec; bench_resilience; bench_respond; bench_fleet ]
