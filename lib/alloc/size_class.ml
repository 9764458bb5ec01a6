let min_class = 16
let max_class = 4096
let align = 16

let block_size size =
  if size < 0 then invalid_arg "Size_class.block_size: negative size";
  let size = if size = 0 then 1 else size in
  (size + align - 1) / align * align

let class_index block = if block <= max_class then (block / align) - 1 else -1

let num_small_classes = max_class / align
