(* In-process request handling through the same public calls the pad
   server's dispatcher makes (lib/server/server.ml, [handle]): the
   traced replay runs requests here, with spans around each call into a
   layer. Writes and resolves take a writer lock
   and sync the WAL before answering, as the server does. *)

module Proto = Si_serve.Proto
module Slimpad = Si_slimpad.Slimpad
module Dmi = Si_slim.Dmi
module Trim = Si_triple.Trim
module Triple = Si_triple.Triple
module Query = Si_query.Query

let writer = Si_check.Lock.create ~class_:"perfbench.writer"

let take limit rows =
  if limit <= 0 then rows else List.filteri (fun i _ -> i < limit) rows

(* "query.topk" -> "topk", "resolve.xml" -> "xml". *)
let shape kind =
  match String.index_opt kind '.' with
  | Some i -> String.sub kind (i + 1) (String.length kind - i - 1)
  | None -> kind

let synced app =
  match Trace.span "Slimpad.wal_sync" (fun () -> Slimpad.wal_sync app) with
  | Ok () -> Proto.Ok_done
  | Error e -> Proto.Err e

let handle app ~kind (req : Proto.request) : Proto.response =
  let trim = Dmi.trim (Slimpad.dmi app) in
  match req with
  | Ping -> Pong
  | Pads ->
      let dmi = Slimpad.dmi app in
      Pad_list (List.map (Dmi.pad_name dmi) (Dmi.pads dmi))
  | Select { pattern = p; limit } ->
      let rows =
        Trace.span_alloc "Trim.select" (fun () ->
            Trim.select ?subject:p.p_subject ?predicate:p.p_predicate
              ?object_:p.p_object trim)
      in
      let kept = take limit rows in
      Trace.tally "trim.rows_returned" (List.length rows);
      Trace.tally "trim.rows_kept" (List.length kept);
      Triples (List.map Triple.to_string kept)
  | Count p ->
      Count_is
        (Trace.span "Trim.count_select" (fun () ->
             Trim.count_select ?subject:p.p_subject ?predicate:p.p_predicate
               ?object_:p.p_object trim))
  | Query text -> (
      match Trace.span "Query.parse" (fun () -> Query.parse text) with
      | Error e -> Err (Printf.sprintf "query: %s" e)
      | Ok q ->
          let q =
            Trace.span "Query.optimize" (fun () -> Query.optimize trim q)
          in
          let rows =
            Trace.span_alloc ("Query.run." ^ shape kind) (fun () ->
                Query.run trim q)
          in
          Rows (List.map Query.binding_to_string rows))
  | Add t ->
      Si_check.Lock.with_lock writer (fun () ->
          ignore (Trace.span "Trim.add" (fun () -> Trim.add trim t));
          synced app)
  | Remove t ->
      Si_check.Lock.with_lock writer (fun () ->
          ignore (Trace.span "Trim.remove" (fun () -> Trim.remove trim t));
          synced app)
  | Resolve { pad; scrap } -> (
      match Dmi.find_pad (Slimpad.dmi app) pad with
      | None -> Err (Printf.sprintf "no pad named %S" pad)
      | Some p -> (
          match
            Trace.span "Slimpad.find_scraps" (fun () ->
                Slimpad.find_scraps app p scrap)
          with
          | [] -> Err (Printf.sprintf "no scrap matching %S" scrap)
          | s :: _ ->
              Si_check.Lock.with_lock writer (fun () ->
                  match
                    Trace.span ("Slimpad.double_click." ^ shape kind) (fun () ->
                        Slimpad.double_click app s)
                  with
                  | Ok res -> Proto.Resolved res.Si_mark.Mark.res_display
                  | Error e -> Proto.Err e)))
  | Open_pad _ | Stats | Submit _ | Job_status _ | Shutdown ->
      Err "not part of the benchmark"

(* One request the way a client and the server see it: encode, decode,
   handle, encode the answer, decode it. *)
let loopback app ~kind req =
  let frame =
    Trace.span "Proto.encode_request" (fun () -> Proto.encode_request req)
  in
  match
    Trace.span "Proto.decode_request" (fun () -> Proto.decode_request frame)
  with
  | Error e -> Error e
  | Ok req ->
      let resp = handle app ~kind req in
      let back =
        Trace.span "Proto.encode_response" (fun () ->
            Proto.encode_response resp)
      in
      Trace.span "Proto.decode_response" (fun () -> Proto.decode_response back)
