(** One description per JSONL schema.  Schemas with a product decoder
    ([Health.of_json], [History.of_json], [Sim.of_json]) are described by
    it, written with the typed accessors below; the rest by a {!t} here
    (bench rows) or next to their emitter ([Alert.description],
    [Respond.description]).  [Validate] checks streams against exactly
    these; emitters share only the tag. *)

type kind = Int | Num | Str | Bool | List | Obj
(** [Int] takes a JSON int only (never a bool or float); [Num] an int or a
    float, since {!Obs_json} prints [1.0] as [1]. *)

(** {1 Typed field access}  Errors read ["missing field 'k'"] or
    ["field 'k' has type float"] (Python's [json] kind names). *)

val int : string -> Obs_json.t -> (int, string) result
val num : string -> Obs_json.t -> (float, string) result
val str : string -> Obs_json.t -> (string, string) result
val bool : string -> Obs_json.t -> (bool, string) result
val list : string -> Obs_json.t -> (Obs_json.t list, string) result
val obj : string -> Obs_json.t -> ((string * Obs_json.t) list, string) result

val counters : string -> Obs_json.t -> ((string * int) list, string) result
(** An object of int tallies. *)

val each :
  (int -> 'a -> ('b, string) result) -> 'a list -> ('b list, string) result
(** Map with the index; the first error wins. *)

val tagged : string -> Obs_json.t -> (unit, string) result
(** The ["schema"] field is exactly this tag. *)

val fraction : string -> float -> (unit, string) result
(** In \[0, 1\], else ["name out of [0, 1]"]. *)

val one_of : what:string -> string list -> string -> (unit, string) result
(** Membership, else ["unknown <what> 'v'"]. *)

(** {1 Field-list descriptions} *)

type t = {
  tag : string;
  fields : (string * kind) list;  (** required; extra fields allowed *)
  row : Obs_json.t -> (unit, string) result;  (** run once fields check *)
}

val check : t -> Obs_json.t -> (unit, string) result

val bench_throughput : t
val bench_exec : t
val bench_resilience : t
val bench_respond : t
val bench_fleet : t

val bench : t list
(** The five above; their row invariants are documented in the source. *)
