(** JSONL stream validation ([csod_run validate]).  Every line is one
    newline-terminated JSON object; a line whose ["schema"] tag has a
    description ({!Jsonl_schema}) must satisfy it; per stream, alerts
    alternate fire/clear per spec and history [seq]s are contiguous. *)

type t
(** One stream's state. *)

val create : ?schema:string -> unit -> t
(** With [schema], every line must carry exactly that tag. *)

val line : t -> string -> (unit, string) result
(** Check one line (without its newline).  Never raises. *)

val contents : ?schema:string -> name:string -> string -> (int, string) result
(** Check a stream; [Ok] counts its lines, [Error] reads [name:LINE: why].
    Under [schema] an empty stream fails. *)

val described : string list
(** The tags with a description. *)
