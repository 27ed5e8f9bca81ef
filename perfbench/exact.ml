(* Exact order statistics over raw samples. Every end-to-end quantile the
   benchmark reports comes from here, over the samples of one request
   class; a bucketed histogram would round a value by up to a bucket
   width, which is wider than the bounds the benchmark enforces. *)

(* Growable buffer of integer samples (nanoseconds, bytes, words). *)
type samples = { mutable data : int array; mutable len : int }

let samples () = { data = Array.make 1024 0; len = 0 }

let add s v =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let count s = s.len
let to_array s = Array.sub s.data 0 s.len

(* Nearest rank: the smallest sample such that at least [p] percent of
   all samples are at or below it. Integer arithmetic, so p99 of 1..100
   is exactly 99. Works on integer and float samples alike; raises on an
   empty sample. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Exact.percentile: no samples";
  let sorted = Array.copy a in
  Array.sort compare sorted;
  let rank = ((p * n) + 99) / 100 in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let median a = percentile a 50
