let block_count ?(min_block = 2048) ?(max_blocks = 64) n =
  if n < 0 then invalid_arg "Chunk.block_count: negative size";
  if n = 0 then 0
  else begin
    if min_block < 1 then invalid_arg "Chunk.block_count: min_block < 1";
    if max_blocks < 1 then invalid_arg "Chunk.block_count: max_blocks < 1";
    max 1 (min max_blocks (n / min_block))
  end

let range ~blocks ~n b =
  if b < 0 || b >= blocks then invalid_arg "Chunk.range: block out of range";
  (b * n / blocks, (b + 1) * n / blocks)
