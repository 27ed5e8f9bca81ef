(* Seeded workspace generators for the workloads. Every input a
   run uses is derived from the --seed argument here; the program under
   test only ever sees the workspace directory these functions write. *)

module Desktop = Si_mark.Desktop
module Slimpad = Si_slimpad.Slimpad
module Dmi = Si_slim.Dmi
module Trim = Si_triple.Trim
module Triple = Si_triple.Triple
module Rng = Si_workload.Rng
module Icu = Si_workload.Icu

let pad_name = "Rounds"

type scrap = { label : string; kind : string; subject : string }

type t = {
  app : Slimpad.t;
  desk : Desktop.t;
  scraps : scrap array;
      (** Worksheet scraps whose label selects exactly that scrap. *)
}

let get_ok what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what e)

let contains ~needle s =
  let n = String.length needle and l = String.length s in
  let rec at i = i + n <= l && (String.sub s i n = needle || at (i + 1)) in
  at 0

(* The worksheet's scraps whose label selects exactly that scrap under
   Resolve, which takes the first scrap whose label contains the needle.
   Labels carry a per-patient tag (see [worksheet]), so a label can only
   collide with one of the same patient. *)
let resolvable app =
  let dmi = Slimpad.dmi app in
  let rec scraps_of bundle =
    Dmi.scraps dmi bundle
    @ List.concat_map scraps_of (Dmi.nested_bundles dmi bundle)
  in
  let patient bundle =
    let labelled =
      List.map (fun s -> (s, Dmi.scrap_name dmi s)) (scraps_of bundle)
    in
    List.filter_map
      (fun (s, label) ->
        let matches =
          List.filter (fun (_, l) -> contains ~needle:label l) labelled
        in
        match (matches, Slimpad.scrap_mark app s) with
        | [ _ ], Some m ->
            Some
              {
                label;
                kind = m.Si_mark.Mark.mark_type;
                subject = Dmi.scrap_id s;
              }
        | _ -> None)
      labelled
  in
  match Dmi.find_pad dmi pad_name with
  | None -> [||]
  | Some pad ->
      Dmi.nested_bundles dmi (Dmi.root_bundle dmi pad)
      |> List.concat_map patient |> Array.of_list

(* The ICU worksheet of paper §2, every scrap label suffixed with its
   patient so that Resolve can reach almost every scrap of the pad. *)
let worksheet ~seed ~patients =
  let desk = Desktop.create () in
  let spec = Icu.build_desktop ~patients ~seed desk in
  let app = Slimpad.create desk in
  let pad = Icu.build_worksheet app spec in
  let dmi = Slimpad.dmi app in
  let rec tag_scraps tag bundle =
    List.iter
      (fun s ->
        Dmi.update_scrap_name dmi s
          (Printf.sprintf "%s %s" (Dmi.scrap_name dmi s) tag))
      (Dmi.scraps dmi bundle);
    List.iter (tag_scraps tag) (Dmi.nested_bundles dmi bundle)
  in
  List.iteri
    (fun i b -> tag_scraps (Printf.sprintf "[p%03d]" i) b)
    (Dmi.nested_bundles dmi (Dmi.root_bundle dmi pad));
  { app; desk; scraps = resolvable app }

(* --- the large reference corpus ------------------------------------- *)

let corpus_docs = 20_000
let fat_predicates = [| "cites"; "mentions"; "taggedWith" |]
let terms = 2_000
let venues = 50
let doc_id i = Printf.sprintf "doc-%05d" i
let term_id i = Printf.sprintf "term-%04d" i
let venue_id i = Printf.sprintf "venue-%02d" i

(* Skewed toward low term numbers: the cube of a uniform draw puts about
   a fifth of all rows on the first 1% of the terms. *)
let skewed_term rng =
  let u = Float.of_int (Rng.int rng 1_000_000) /. 1_000_000. in
  min (terms - 1) (int_of_float (Float.of_int terms *. u *. u *. u))

let words =
  [| "bundle"; "scrap"; "mark"; "context"; "resident"; "worksheet";
     "superimposed"; "triple"; "model"; "excerpt"; "query"; "layer";
     "document"; "pad"; "handoff"; "patient" |]

(* About ten triples per document: 1-2 rows in each fat predicate
   (so each holds ~30k rows), plus title, year, venue, author and lang. *)
let add_corpus ~seed app =
  let trim = Dmi.trim (Slimpad.dmi app) in
  let rng = Rng.create (seed lxor 0x5eed) in
  let add s p o = ignore (Trim.add trim (Triple.make s p o)) in
  for i = 0 to corpus_docs - 1 do
    let s = doc_id i in
    Array.iter
      (fun p ->
        for _ = 0 to Rng.int rng 2 do
          add s p (Triple.Resource (term_id (skewed_term rng)))
        done)
      fat_predicates;
    add s "title"
      (Triple.Literal
         (Printf.sprintf "%s %s %s %05d"
            words.(Rng.int rng (Array.length words))
            words.(Rng.int rng (Array.length words))
            words.(Rng.int rng (Array.length words))
            i));
    add s "year" (Triple.Literal (string_of_int (1970 + Rng.int rng 31)));
    add s "venue" (Triple.Resource (venue_id (Rng.int rng venues)));
    add s "author"
      (Triple.Resource (Printf.sprintf "author-%04d" (Rng.int rng 3000)));
    add s "lang" (Triple.Literal (if Rng.int rng 5 = 0 then "de" else "en"))
  done

(* --- workspace files ------------------------------------------------- *)

let wal_path dir = Filename.concat dir "pad.wal"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir dir =
  rm_rf dir;
  Sys.mkdir dir 0o755

(* The layout `slimpad serve DIR` loads: base documents under the
   suffixes the workspace loader recognises, then the journaled pad. *)
let write_documents desk dir =
  List.iter
    (fun (kind, name) ->
      let path = Filename.concat dir name in
      match kind with
      | "excel" ->
          Si_spreadsheet.Workbook.save
            (get_ok name (Desktop.open_workbook desk name))
            (path ^ ".workbook.xml")
      | "xml" ->
          Si_xmlk.Print.to_file path (get_ok name (Desktop.open_xml desk name))
      | "text" ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc
                (Si_textdoc.Textdoc.to_string
                   (get_ok name (Desktop.open_text desk name))))
      | _ -> ())
    (Desktop.document_names desk)

let write_workspace t dir =
  Sys.mkdir dir 0o755;
  write_documents t.desk dir;
  get_ok "enable_wal" (Slimpad.enable_wal t.app (wal_path dir))

let close_wal app = get_ok "wal_close" (Slimpad.wal_close app)

let file_size path =
  try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let disk_bytes dir =
  let w = wal_path dir in
  file_size w + file_size (Si_wal.Log.snapshot_path w)

(* --- the two pads ----------------------------------------------------- *)

let rounds_patients = 32
let rounds ~seed = worksheet ~seed ~patients:rounds_patients

let corpus ~seed =
  let t = worksheet ~seed ~patients:rounds_patients in
  add_corpus ~seed t.app;
  t

(* A journaled tail of [records] WAL records on top of the pad's last
   snapshot — annotations, scrap moves and annotation removals — so that
   opening the workspace replays a log as well as decoding a snapshot.
   Seeded, so the tail is the same whatever the session before it did. *)
let journal_tail ~seed app ~records =
  let dmi = Slimpad.dmi app in
  let scraps =
    Array.map
      (fun s -> Option.get (Dmi.scrap_of_id dmi s.subject))
      (resolvable app)
  in
  let rng = Rng.create (seed lxor 0x7a11) in
  let log = Option.get (Slimpad.wal app) in
  let n = ref 0 in
  while Si_wal.Log.record_count log < records do
    let s = scraps.(Rng.int rng (Array.length scraps)) in
    (match Rng.int rng 8 with
    | 0 ->
        Dmi.move_scrap dmi s
          { Dmi.x = Rng.int rng 800; y = Rng.int rng 6000 }
    | 1 -> (
        match Dmi.annotations dmi s with
        | a :: _ -> ignore (Dmi.remove_annotation dmi s a)
        | [] -> ())
    | _ -> Dmi.annotate_scrap dmi s (Printf.sprintf "handoff note %d" !n));
    incr n;
    if !n mod 256 = 0 then get_ok "wal_sync" (Slimpad.wal_sync app)
  done;
  get_ok "wal_sync" (Slimpad.wal_sync app)
