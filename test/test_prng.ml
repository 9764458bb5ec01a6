(* Unit and property tests for the per-thread PRNG. *)

let test_determinism () =
  let a = Prng.create ~seed:7 in
  let b = Prng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:7 in
  let b = Prng.create ~seed:8 in
  Alcotest.(check bool) "different seeds differ" true (Prng.bits64 a <> Prng.bits64 b)

let test_copy_preserves () =
  let a = Prng.create ~seed:3 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 a) (Prng.bits64 b)

let test_split_diverges () =
  let a = Prng.create ~seed:3 in
  let b = Prng.split a in
  let xs = List.init 20 (fun _ -> Prng.bits64 a) in
  let ys = List.init 20 (fun _ -> Prng.bits64 b) in
  Alcotest.(check bool) "split stream differs" true (xs <> ys)

let test_fork_deterministic () =
  let stream label =
    let parent = Prng.create ~seed:11 in
    let g = Prng.fork parent label in
    List.init 20 (fun _ -> Prng.bits64 g)
  in
  Alcotest.(check bool) "same (parent, label): same substream" true
    (stream "sim:heap" = stream "sim:heap");
  Alcotest.(check bool) "different labels: different substreams" true
    (stream "sim:heap" <> stream "sim:store")

let test_fork_advances_parent_once () =
  let a = Prng.create ~seed:11 and b = Prng.create ~seed:11 in
  ignore (Prng.fork a "anything");
  ignore (Prng.bits64 b);
  Alcotest.(check int64) "parent advanced exactly one draw" (Prng.bits64 a)
    (Prng.bits64 b)

let test_fork_independent_of_parent_continuation () =
  (* The substream must not share state with the parent: draws on one do
     not perturb the other. *)
  let parent = Prng.create ~seed:3 in
  let g = Prng.fork parent "child" in
  let head = Prng.bits64 g in
  let parent' = Prng.create ~seed:3 in
  let g' = Prng.fork parent' "child" in
  for _ = 1 to 50 do
    ignore (Prng.bits64 parent')
  done;
  Alcotest.(check int64) "substream unaffected by parent draws" head
    (Prng.bits64 g');
  (* And statistically disjoint from the parent's own continuation. *)
  let xs = List.init 20 (fun _ -> Prng.bits64 parent) in
  let ys = List.init 20 (fun _ -> Prng.bits64 g) in
  Alcotest.(check bool) "fork stream differs from parent stream" true (xs <> ys)

let test_int_bound_edge () =
  let g = Prng.create ~seed:1 in
  for _ = 1 to 100 do
    Alcotest.(check int) "bound 1 is always 0" 0 (Prng.int g 1)
  done

let test_int_rejects_nonpositive () =
  let g = Prng.create ~seed:1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_below_percent_extremes () =
  let g = Prng.create ~seed:1 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=0 never passes" false (Prng.below_percent g 0.0);
    Alcotest.(check bool) "p=1 always passes" true (Prng.below_percent g 1.0);
    Alcotest.(check bool) "negative never passes" false (Prng.below_percent g (-0.5))
  done

let test_below_percent_rate () =
  let g = Prng.create ~seed:42 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.below_percent g 0.25 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f within 0.02 of 0.25" rate)
    true
    (abs_float (rate -. 0.25) < 0.02)

let test_float_range () =
  let g = Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let f = Prng.float g in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_bool_balance () =
  let g = Prng.create ~seed:17 in
  let t = ref 0 in
  for _ = 1 to 10_000 do
    if Prng.bool g then incr t
  done;
  Alcotest.(check bool) "roughly balanced" true (!t > 4_500 && !t < 5_500)

(* Known-answer vectors recorded from the reference xoshiro256** stream
   (splitmix64 seeding).  The tests above only compare two streams with
   each other; these pin the stream itself, so a change to the state
   representation that alters a single output bit fails here. *)

let first8 =
  [ ( 0,
      [ 0x99ec5f36cb75f2b4L; 0xbf6e1f784956452aL; 0x1a5f849d4933e6e0L;
        0x6aa594f1262d2d2cL; 0xbba5ad4a1f842e59L; 0xffef8375d9ebcacaL;
        0x6c160deed2f54c98L; 0x8920ad648fc30a3fL ] );
    ( 1,
      [ 0xb3f2af6d0fc710c5L; 0x853b559647364ceaL; 0x92f89756082a4514L;
        0x642e1c7bc266a3a7L; 0xb27a48e29a233673L; 0x24c123126ffda722L;
        0x123004ef8df510e6L; 0x61954dcc47b1e89dL ] );
    ( 42,
      [ 0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L;
        0xecb8ad4703b360a1L; 0xfde6dc7fe2ec5e64L; 0xc50da53101795238L;
        0xb82154855a65ddb2L; 0xd99a2743ebe60087L ] ) ]

let draws g n = List.init n (fun _ -> Prng.bits64 g)

let test_kat_bits64 () =
  List.iter
    (fun (seed, want) ->
      Alcotest.(check (list int64))
        (Printf.sprintf "seed %d first 8" seed)
        want
        (draws (Prng.create ~seed) 8))
    first8;
  let g = Prng.create ~seed:42 in
  Prng.discard g 3;
  Alcotest.(check int64) "discard 3, then the 4th draw" 0xecb8ad4703b360a1L
    (Prng.bits64 g)

let test_kat_int () =
  let g = Prng.create ~seed:42 in
  List.iter
    (fun (bound, want) ->
      Alcotest.(check int) (Printf.sprintf "int %d" bound) want (Prng.int g bound))
    [ (1, 0); (2, 0); (3, 0); (10, 1); (100, 64); (1_000_003, 539672);
      (max_int, 4044606872079424946);
      (max_int / 2 + 7, 1844830170035650695) ];
  (* Seed 1's first draw lands in the biased tail for bound 2^61+1 and is
     rejected: the result comes from the second draw, and the stream is
     left at the third. *)
  let g = Prng.create ~seed:1 in
  Alcotest.(check int) "rejection case" 376989097743764714
    (Prng.int g ((1 lsl 61) + 1));
  Alcotest.(check int64) "two draws consumed" 0x92f89756082a4514L (Prng.bits64 g)

let test_kat_float_bool_percent () =
  let g = Prng.create ~seed:1 in
  Alcotest.(check (list (float 0.)))
    "float seed 1"
    [ 0x1.67e55eda1f8e2p-1; 0x1.0a76ab2c8e6c9p-1; 0x1.25f12eac10548p-1;
      0x1.90b871ef099a8p-2 ]
    (List.init 4 (fun _ -> Prng.float g));
  let bits g n f =
    String.init n (fun _ -> if f g then '1' else '0')
  in
  Alcotest.(check string) "below_percent 0.5 seed 1" "0001011100000000"
    (bits (Prng.create ~seed:1) 16 (fun g -> Prng.below_percent g 0.5));
  Alcotest.(check string) "below_percent 0.1 seed 7"
    "00000010000000000000000000100010"
    (bits (Prng.create ~seed:7) 32 (fun g -> Prng.below_percent g 0.1));
  Alcotest.(check string) "bool seed 1" "1001100110101111"
    (bits (Prng.create ~seed:1) 16 Prng.bool)

let test_kat_derived () =
  let g = Prng.create ~seed:42 in
  let s = Prng.split g in
  Alcotest.(check (list int64)) "split child"
    [ 0x8ee445d14631c453L; 0x106fa1a13296fe62L ] (draws s 2);
  Alcotest.(check int64) "split parent" 0x6104d9866d113a7eL (Prng.bits64 g);
  let g = Prng.create ~seed:42 in
  let f = Prng.fork g "x" in
  Alcotest.(check (list int64)) "fork \"x\" child"
    [ 0x8838f551bab8fde3L; 0xff7e1953aa5da174L ] (draws f 2);
  Alcotest.(check int64) "fork parent" 0x6104d9866d113a7eL (Prng.bits64 g);
  let g = Prng.create ~seed:42 in
  Alcotest.(check (list int64)) "canary64 seed 42"
    [ 0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L;
      0xecb8ad4703b360a1L ]
    (List.init 4 (fun _ -> Prng.canary64 g));
  let g = Prng.create ~seed:3 in
  ignore (Prng.bits64 g);
  let c = Prng.copy g in
  Alcotest.(check int64) "copy" 0xa3fd1dea5e1864eeL (Prng.bits64 c);
  Alcotest.(check int64) "original after copy" 0xa3fd1dea5e1864eeL
    (Prng.bits64 g)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Prng.int stays in [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let g = Prng.create ~seed in
      let v = Prng.int g bound in
      v >= 0 && v < bound)

let prop_canary_nonzero =
  QCheck.Test.make ~name:"canary64 never zero" ~count:300 QCheck.small_int
    (fun seed ->
      let g = Prng.create ~seed in
      List.for_all (fun _ -> Prng.canary64 g <> 0L) (List.init 10 Fun.id))

let suite =
  [ Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy preserves state" `Quick test_copy_preserves;
    Alcotest.test_case "split diverges" `Quick test_split_diverges;
    Alcotest.test_case "fork: label-salted determinism" `Quick
      test_fork_deterministic;
    Alcotest.test_case "fork: parent advances one draw" `Quick
      test_fork_advances_parent_once;
    Alcotest.test_case "fork: substream independence" `Quick
      test_fork_independent_of_parent_continuation;
    Alcotest.test_case "int bound 1" `Quick test_int_bound_edge;
    Alcotest.test_case "int rejects bound 0" `Quick test_int_rejects_nonpositive;
    Alcotest.test_case "below_percent extremes" `Quick test_below_percent_extremes;
    Alcotest.test_case "below_percent rate" `Quick test_below_percent_rate;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "bool balance" `Quick test_bool_balance;
    Alcotest.test_case "known answers: bits64" `Quick test_kat_bits64;
    Alcotest.test_case "known answers: int" `Quick test_kat_int;
    Alcotest.test_case "known answers: float/bool/below_percent" `Quick
      test_kat_float_bool_percent;
    Alcotest.test_case "known answers: split/fork/canary/copy" `Quick
      test_kat_derived;
    QCheck_alcotest.to_alcotest prop_int_in_bounds;
    QCheck_alcotest.to_alcotest prop_canary_nonzero ]
