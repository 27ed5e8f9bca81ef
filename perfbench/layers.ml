(* Per-layer metrics from the traced replay: mean self time of the spans
   around each layer's public calls, and the tallies taken at the same
   boundaries. A metric whose spans never ran is an error, so a replay
   that silently stopped exercising a layer cannot go unnoticed. *)

type t = { self : (string, int * int) Hashtbl.t }

let of_spans spans =
  let self = Hashtbl.create 64 in
  List.iter
    (fun (s, ns) ->
      let name = Trace.name s in
      let sum, n = Option.value (Hashtbl.find_opt self name) ~default:(0, 0) in
      Hashtbl.replace self name (sum + ns, n + 1))
    (Trace.self_times spans);
  { self }

let calls t name =
  match Hashtbl.find_opt t.self name with
  | Some (sum, n) when n > 0 -> (sum, n)
  | _ -> failwith (Printf.sprintf "the traced replay made no %s call" name)

let mean_self t name =
  let sum, n = calls t name in
  Float.of_int sum /. Float.of_int n

let tally_mean name =
  match Hashtbl.find_opt Trace.tallies name with
  | Some (sum, n) when n > 0 -> Float.of_int sum /. Float.of_int n
  | _ -> failwith (Printf.sprintf "the traced replay tallied no %s" name)

let tally_sum name =
  match Hashtbl.find_opt Trace.tallies name with
  | Some (sum, _) -> Float.of_int sum
  | None -> failwith (Printf.sprintf "the traced replay tallied no %s" name)

let query_shapes = [ "limit1"; "topk"; "join" ]
let mark_types = [ "excel"; "xml"; "text" ]

(* Everything the replay measures, for [requests] replayed requests. *)
let report (o : Outcome.t) t ~requests ~bundle_bytes_per_triple ~overhead =
  let m = Outcome.metric o in
  let proto =
    Hashtbl.fold
      (fun name (sum, _) acc ->
        if String.starts_with ~prefix:"Proto." name then acc + sum else acc)
      t.self 0
  in
  Outcome.metric o ~samples:requests "serve.codec_ns" "ns"
    (Float.of_int proto /. Float.of_int requests);
  (* Mean self time of the spans named [span], over their count. *)
  let self metric unit ~per span =
    Outcome.metric o ~samples:(snd (calls t span)) metric unit
      (mean_self t span /. per)
  in
  self "wal.sync_us" "us" ~per:1e3 "Slimpad.wal_sync";
  self "wal.log_open_s" "s" ~per:1e9 "Si_wal.Log.open_";
  Outcome.metric o ~samples:(snd (calls t "Slimpad.open_wal"))
    "slimpad.open_self_s" "s"
    ((mean_self t "Slimpad.open_wal" -. mean_self t "Si_wal.Log.open_") /. 1e9);
  self "trim.add_us" "us" ~per:1e3 "Trim.add";
  self "trim.count_ns" "ns" ~per:1. "Trim.count_select";
  self "trim.select_us" "us" ~per:1e3 "Trim.select";
  m "trim.rows_per_result" "1"
    (tally_sum "trim.rows_returned" /. tally_sum "trim.rows_kept");
  m "trim.select_alloc_words" "words" (tally_mean "alloc.Trim.select");
  self "query.parse_us" "us" ~per:1e3 "Query.parse";
  self "query.optimize_us" "us" ~per:1e3 "Query.optimize";
  List.iter
    (fun q ->
      self ("query.run_us." ^ q) "us" ~per:1e3 ("Query.run." ^ q);
      m ("query.run_alloc_words." ^ q) "words"
        (tally_mean ("alloc.Query.run." ^ q)))
    query_shapes;
  List.iter
    (fun k ->
      self ("mark.resolve_us." ^ k) "us" ~per:1e3
        ("Slimpad.double_click." ^ k))
    mark_types;
  self "bundle.capture_s" "s" ~per:1e9 "Si_bundle.capture";
  self "bundle.write_s" "s" ~per:1e9 "Si_bundle.write_file";
  self "bundle.read_s" "s" ~per:1e9 "Si_bundle.read_file";
  self "bundle.apply_s" "s" ~per:1e9 "Si_bundle.apply";
  m "bundle.bytes_per_triple" "B" bundle_bytes_per_triple;
  m "trace.overhead_share" "1" overhead
