type t = {
  epoch : int;
  arrivals : int;
  arrived : int;
  detections : int;
  cumulative : int;
  cdf : float;
  store_contexts : int;
  patched : int;
  degraded : int;
  worker_crashes : int;
  faults : (string * int) list;
  snapshots : int;
  cycles : int;
  virtual_seconds : float;
  cycle_skew : float;
}

let to_json o : Obs_json.t =
  `Assoc
    [ ("epoch", `Int o.epoch); ("arrivals", `Int o.arrivals);
      ("arrived", `Int o.arrived); ("detections", `Int o.detections);
      ("cumulative", `Int o.cumulative); ("cdf", `Float o.cdf);
      ("store_contexts", `Int o.store_contexts);
      ("patched", `Int o.patched);
      ("degraded", `Int o.degraded);
      ("worker_crashes", `Int o.worker_crashes);
      ("faults", `Assoc (List.map (fun (k, v) -> (k, `Int v)) o.faults));
      ("snapshots", `Int o.snapshots); ("cycles", `Int o.cycles);
      ("virtual_seconds", `Float o.virtual_seconds);
      ("cycle_skew", `Float o.cycle_skew) ]

let of_json json =
  let open Jsonl_schema in
  let ( let* ) = Result.bind in
  let* epoch = int "epoch" json in
  let* arrivals = int "arrivals" json in
  let* arrived = int "arrived" json in
  let* detections = int "detections" json in
  let* cumulative = int "cumulative" json in
  let* cdf = num "cdf" json in
  let* store_contexts = int "store_contexts" json in
  (* Absent in pre-respond histories: read as 0 so old segments replay. *)
  let* patched =
    if Obs_json.member "patched" json = None then Ok 0 else int "patched" json
  in
  let* degraded = int "degraded" json in
  let* worker_crashes = int "worker_crashes" json in
  let* snapshots = int "snapshots" json in
  let* cycles = int "cycles" json in
  let* virtual_seconds = num "virtual_seconds" json in
  let* cycle_skew = num "cycle_skew" json in
  let* faults = counters "faults" json in
  Ok
    { epoch; arrivals; arrived; detections; cumulative; cdf; store_contexts;
      patched; degraded; worker_crashes; faults; snapshots; cycles;
      virtual_seconds; cycle_skew }
