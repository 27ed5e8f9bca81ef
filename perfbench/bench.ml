(* perfbench: one run of one workload.

     bench.exe --workload rounds|corpus --seed N --seconds S
               --trace 0|1 --slimpad PATH --work DIR

   Prints the run's checks and metrics as one JSON line on stdout (see
   perfbench/README.md). *)

let usage =
  "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --slimpad EXE \
   --work DIR"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20
  and trace = ref 0 and exe = ref "" and work = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "rounds or corpus");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "1: per-layer metrics, traced replay");
      ("--slimpad", Arg.Set_string exe, "the slimpad executable to serve");
      ("--work", Arg.Set_string work, "scratch directory for workspaces");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !work = "" then (prerr_endline usage; exit 2);
  let o = Pb.Outcome.create () in
  let trace = !trace = 1 in
  Pb.Gen.fresh_dir !work;
  (match !workload with
  | "rounds" ->
      Pb.Served.run o Pb.Mix.Rounds ~seed:!seed ~seconds:!seconds ~trace
        ~exe:!exe ~work:!work
  | "corpus" ->
      Pb.Served.run o Pb.Mix.Corpus ~seed:!seed ~seconds:!seconds ~trace
        ~exe:!exe ~work:!work
  | other ->
      Printf.eprintf "unknown workload %S\n%s\n" other usage;
      exit 2);
  if trace then
    Pb.Outcome.metric o "failed_share" "1"
      (Float.of_int o.failed /. Float.of_int (max 1 o.attempted));
  Pb.Gen.rm_rf !work;
  Pb.Outcome.print o
