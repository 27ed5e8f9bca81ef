(* The benchmark's own checks: exact quantiles on fixed samples, the
   rule that no end-to-end metric comes from bucketed histogram
   quantiles, and the write ledger's bounds on concurrent counts. *)

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let shuffled n =
  let a = Array.init n (fun i -> i + 1) in
  let rng = Si_workload.Rng.create 7 in
  for i = n - 1 downto 1 do
    let j = Si_workload.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let quantiles () =
  let open Pb.Exact in
  let hundred = shuffled 100 and thousand = shuffled 1000 in
  expect "p50 of 1..100" (percentile hundred 50 = 50);
  expect "p99 of 1..100" (percentile hundred 99 = 99);
  expect "p100 of 1..100" (percentile hundred 100 = 100);
  expect "p50 of 1..1000" (percentile thousand 50 = 500);
  expect "p99 of 1..1000" (percentile thousand 99 = 990);
  expect "p1 of 1..1000" (percentile thousand 1 = 10);
  expect "p50 of one sample" (percentile [| 42 |] 50 = 42);
  expect "p99 of one sample" (percentile [| 42 |] 99 = 42);
  expect "p50 of an even count is the lower middle"
    (percentile [| 4; 1; 3; 2 |] 50 = 2);
  expect "median of floats" (median [| 3.; 1.; 2. |] = 2.);
  expect "input left unsorted" (hundred <> Array.init 100 (fun i -> i + 1));
  let s = samples () in
  for i = 1 to 5000 do
    add s (5001 - i)
  done;
  expect "growable samples"
    (count s = 5000 && percentile (to_array s) 99 = 4950);
  expect "no samples is an error"
    (match percentile [||] 50 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* End-to-end latencies must be exact order statistics of raw samples:
   a bucketed histogram quantile is off by up to a bucket width (about
   a fifth), more than any bound the benchmark sets. *)
let forbidden =
  [ "Histogram.quantile"; "Histogram.median"; "Loadgen.quantile_ns";
    "\"p50\""; "\"p90\""; "\"p99\"" ]

let contains ~needle s =
  let n = String.length needle and l = String.length s in
  let rec at i = i + n <= l && (String.sub s i n = needle || at (i + 1)) in
  at 0

let no_histogram_quantiles () =
  let sources =
    Sys.readdir ".." |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
  in
  expect "benchmark sources are visible" (List.mem "served.ml" sources);
  List.iter
    (fun f ->
      let text =
        In_channel.with_open_bin (Filename.concat ".." f) In_channel.input_all
      in
      List.iter
        (fun needle ->
          expect
            (Printf.sprintf "%s reads a histogram quantile (%s)" f needle)
            (not (contains ~needle text)))
        forbidden)
    sources

(* Two writers, one count in flight: the answer may include the
   unacknowledged add but nothing beyond it. *)
let ledger_bounds () =
  let open Pb.Mix in
  let module Proto = Si_serve.Proto in
  let base = Hashtbl.create 1 in
  Hashtbl.replace base "p" 10;
  let m =
    {
      written = [| "p" |];
      base_count = base;
      pair_count = Hashtbl.create 1;
      by_subject = Hashtbl.create 1;
      rows = Hashtbl.create 1;
      subjects = [||];
      scraps = [||];
      resolved = Hashtbl.create 1;
      limit1 = [||];
      topk = [||];
      join = [||];
      pads = [];
    }
  in
  let l = ledger () in
  let t = Si_triple.Triple.make "s" "p" (Si_triple.Triple.Literal "o") in
  let add =
    {
      request = Proto.Add t;
      cls = Write;
      kind = "add";
      expect = Acked (`Add, t);
    }
  in
  let count =
    {
      request = Proto.Count { Proto.any with p_predicate = Some "p" };
      cls = Point;
      kind = "count";
      expect = Count_of "p";
    }
  in
  let c = sent l count in
  let a = sent l add in
  expect "count before the add lands" (check m l c (Proto.Count_is 10));
  expect "count after the add lands" (check m l c (Proto.Count_is 11));
  expect "count beyond every write sent"
    (not (check m l c (Proto.Count_is 12)));
  expect "add acknowledged" (check m l a Proto.Ok_done);
  let c' = sent l count in
  expect "acknowledged add must be counted"
    (not (check m l c' (Proto.Count_is 10)));
  expect "net adds" (l.net = 1 && Hashtbl.mem l.live t)

let () =
  quantiles ();
  no_histogram_quantiles ();
  ledger_bounds ();
  if !failures > 0 then exit 1;
  print_endline "perfbench checks: ok"
