type t = { callsite : int; stack_offset : int; backtrace : unit -> int array }

type key = int * int

let key t = (t.callsite, t.stack_offset)
let equal_key (a1, b1) (a2, b2) = a1 = a2 && b1 = b2

let hash_key (a, b) =
  (* Mix the two components; both are small non-negative ints in practice. *)
  let h = (a * 0x9E3779B1) lxor (b * 0x85EBCA77) in
  h land max_int

let synthetic ?(stack_offset = 0) ~callsite () =
  { callsite; stack_offset; backtrace = (fun () -> [| callsite |]) }
