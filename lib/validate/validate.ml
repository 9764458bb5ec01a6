let ( let* ) = Result.bind

type t = {
  schema : string option;
  alerts : (string, string) Hashtbl.t;  (* spec -> last state seen *)
  mutable next_seq : int option;  (* fixed by the first history line *)
  mutable mid_stream : bool;  (* history past seq 0: a first clear is legal *)
}

let create ?schema () =
  { schema; alerts = Hashtbl.create 8; next_seq = None; mid_stream = false }

(* The engine emits transitions only, so per spec the states alternate. *)
let alert t json =
  let* () = Jsonl_schema.check Alert.description json in
  let* spec = Jsonl_schema.str "spec" json in
  let* state = Jsonl_schema.str "state" json in
  let prev = Hashtbl.find_opt t.alerts spec in
  if state = "fire" && prev = Some "fire" then
    Error (spec ^ " fired twice without clearing")
  else if
    state = "clear" && prev <> Some "fire" && not (t.mid_stream && prev = None)
  then Error (spec ^ " cleared without firing")
  else Ok (Hashtbl.replace t.alerts spec state)

let history t json =
  let* r = History.of_json json in
  if t.next_seq = None && r.seq <> 0 then t.mid_stream <- true;
  let* () =
    match t.next_seq with
    | Some n when r.seq <> n ->
      Error (Printf.sprintf "seq %d, expected %d" r.seq n)
    | _ -> Ok ()
  in
  t.next_seq <- Some (r.seq + 1);
  let within what r = Result.map_error (fun e -> what ^ " body: " ^ e) r in
  match r.kind with
  | History.Meta -> Ok ()
  | History.Health ->
    within "health"
      (let* o = Serve_obs.of_json r.body in
       Jsonl_schema.fraction "cdf" o.Serve_obs.cdf)
  | History.Alert ->
    within "alert"
      (let* () = Jsonl_schema.tagged Alert.description.tag r.body in
       alert t r.body)

let health json =
  let* s = Health.of_json json in
  Jsonl_schema.fraction "cdf" s.Health.cdf

let repro json =
  let* f = Sim.of_json json in
  let* ops =
    Option.to_result
      (Option.map Sim.op_names (Sim_registry.find f.alphabet))
      ~none:(Printf.sprintf "unknown alphabet '%s'" f.alphabet)
  in
  let n = List.length f.steps in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let stray (s : Sim.step) = not (List.mem s.op ops) in
  match List.find_index stray f.steps with
  | Some i ->
    fail "op %d '%s' is not in the %s alphabet" i (List.nth f.steps i).op
      f.alphabet
  | None when n = 0 -> Error "empty op sequence"
  | None when f.failed_at < 0 || f.failed_at >= n ->
    fail "failed_at %d outside the %d-op sequence" f.failed_at n
  | None when f.shrunk_from < n ->
    fail "shrunk_from %d below the kept %d ops" f.shrunk_from n
  | None -> Ok ()

let checks t =
  [ (Health.schema, health); (History.schema, history t); (Sim.schema, repro);
    (Alert.description.tag, alert t) ]
  @ List.map
      (fun d -> (d.Jsonl_schema.tag, Jsonl_schema.check d))
      (Respond.description :: Jsonl_schema.bench)

let described = List.map fst (checks (create ()))

let line t s =
  match Obs_json.of_string s with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok (`Assoc _ as json) -> (
    let* () =
      match t.schema with
      | Some want -> Jsonl_schema.tagged want json
      | None -> Ok ()
    in
    match Obs_json.member "schema" json with
    | Some (`String tag) -> (
      match List.assoc_opt tag (checks t) with
      | Some check -> check json
      | None -> Ok ())
    | _ -> Ok ())
  | Ok _ -> Error "line is not a JSON object"

let contents ?schema ~name data =
  let t = create ?schema () in
  let fail n msg = Error (Printf.sprintf "%s:%d: %s" name n msg) in
  (* A newline-terminated stream splits into its lines plus a final "". *)
  let rec go n = function
    | [] | [ "" ] -> Ok (n - 1)
    | [ _ ] -> fail n "truncated final line (no newline)"
    | "" :: _ -> fail n "empty line"
    | l :: rest -> (
      match line t l with Ok () -> go (n + 1) rest | Error e -> fail n e)
  in
  let* lines = go 1 (String.split_on_char '\n' data) in
  match schema with
  | Some s when lines = 0 ->
    Error (Printf.sprintf "%s: empty stream (expected %s rows)" name s)
  | _ -> Ok lines
