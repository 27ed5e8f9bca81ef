(* The traced replay's spans are Si_obs spans. The benchmark opens one
   around each call it makes into a layer, named after the function it
   calls ("Trim.select": layer "Trim", op "select"); the layers' own
   spans (lower-case layers: "triple", "wal", ...) nest inside those
   calls and count towards their self time. An exporter keeps the
   benchmark's spans, each with the id of the request it belongs to, in
   memory until the replay ends. *)

module Span = Si_obs.Span

type span = { s : Span.finished; req : int }

let name s = s.s.Span.layer ^ "." ^ s.s.Span.op

(* Layers the benchmark has opened spans in, to tell its spans from the
   program's own. *)
let ours : (string, unit) Hashtbl.t = Hashtbl.create 16
let recorded : span list ref = ref []
let current_req = ref 0

(* Extra tallies taken at the same boundaries: minor words allocated by
   a call, rows a selection returned against rows it kept. *)
let tallies : (string, int * int) Hashtbl.t = Hashtbl.create 32

let on = Span.on

let tally name v =
  if on () then
    let sum, n = Option.value (Hashtbl.find_opt tallies name) ~default:(0, 0) in
    Hashtbl.replace tallies name (sum + v, n + 1)

let keep (s : Span.finished) =
  if Hashtbl.mem ours s.Span.layer then
    recorded := { s; req = !current_req } :: !recorded

(* Start recording from scratch, timed with the benchmark's clock. *)
let start () =
  recorded := [];
  current_req := 0;
  Hashtbl.reset tallies;
  Si_obs.Clock.set Clock.now;
  Span.set_exporter (Some keep);
  Span.enable ()

(* Pause recording; [resume] goes on where [start] began. *)
let pause () = Span.disable ()
let resume () = Span.enable ()

let stop () =
  Span.disable ();
  Span.set_exporter None;
  ignore (Span.drain ())

let span name f =
  if not (on ()) then f ()
  else
    let layer, op =
      match String.index_opt name '.' with
      | Some i ->
          (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
      | None -> (name, "")
    in
    Hashtbl.replace ours layer ();
    Span.with_ ~layer ~op f

(* A span that also tallies the minor words the call allocated. *)
let span_alloc name f =
  if not (on ()) then f ()
  else
    span name (fun () ->
        let w0 = Gc.minor_words () in
        let v = f () in
        tally ("alloc." ^ name) (int_of_float (Gc.minor_words () -. w0));
        v)

let request id name f =
  current_req := id;
  span name f

let spans () =
  List.sort (fun a b -> compare a.s.Span.start_ns b.s.Span.start_ns) !recorded

(* Self time: a span's duration minus the time its child spans (the
   benchmark's, one domain, never overlapping) cover. *)
let self_times spans =
  let child = Hashtbl.create 4096 in
  List.iter
    (fun x ->
      Option.iter
        (fun p ->
          Hashtbl.replace child p
            (Span.duration_ns x.s
            + Option.value (Hashtbl.find_opt child p) ~default:0))
        x.s.Span.parent)
    spans;
  List.map
    (fun x ->
      ( x,
        Span.duration_ns x.s
        - Option.value (Hashtbl.find_opt child x.s.Span.id) ~default:0 ))
    spans

(* One JSON object per line, in start order. *)
let write_jsonl path spans =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun (x, self) ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\
             \"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d}\n"
            x.s.Span.id
            (Option.value x.s.Span.parent ~default:0)
            x.req (name x) x.s.Span.start_ns x.s.Span.stop_ns self)
        (self_times spans))
