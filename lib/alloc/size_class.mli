(** Segregated size classes for the heap allocator.

    Classes advance in 16-byte steps up to {!max_class} (matching the
    fine-grained small bins of production allocators); requests above
    [max_class] are "large" and rounded to 16-byte granules.  The layout
    matters to the reproduction twice over: object spacing determines
    whether a one-word overflow lands on the adjacent object or on
    padding (CSOD places the watchpoint and evidence canary immediately
    past the {e requested} size, inside that padding), and per-object
    padding waste feeds Table V's memory accounting. *)

val min_class : int
(** 16 bytes. *)

val max_class : int
(** 4096 bytes. *)

val align : int
(** Allocation granule, 16 bytes. *)

val block_size : int -> int
(** [block_size size] is the number of bytes reserved for a request of
    [size] bytes ([size >= 0]; a request of 0 is treated as 1, matching
    malloc): the request rounded up to the 16-byte granule.  Blocks of at
    most {!max_class} bytes are small classes; larger ones are "large".
    Plain ints throughout, so classifying a request allocates nothing. *)

val class_index : int -> int
(** [class_index block] is the index of a small class's block size in
    the per-class table, or [-1] for a large block. *)

val num_small_classes : int
