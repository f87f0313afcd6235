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

let iter_pairs ~np ~lo ~hi f =
  if lo < 0 || hi > np * (np + 1) / 2 || lo > hi then
    invalid_arg "Chunk.iter_pairs: bad range";
  (* locate the pair of flat index [lo]: row i owns the np - i indices
     starting at i*np - i*(i-1)/2 *)
  let i = ref 0 and base = ref 0 in
  while !i < np && !base + (np - !i) <= lo do
    base := !base + (np - !i);
    incr i
  done;
  let j = ref (!i + (lo - !base)) in
  for k = lo to hi - 1 do
    f k !i !j;
    incr j;
    if !j >= np then begin
      incr i;
      j := !i
    end
  done
