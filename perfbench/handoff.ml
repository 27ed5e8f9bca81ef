(* The shift handoff at the end of a session: open the journaled
   workspace, capture it with its base documents into a bundle file,
   apply the bundle into an empty journaled workspace — the calls
   `slimpad capture` and `slimpad apply` make. *)

module Slimpad = Si_slimpad.Slimpad
module Bundle = Si_bundle

let get_ok = Gen.get_ok

type transfer = {
  source : Slimpad.t;
  received : Slimpad.t;
  target : string;  (** The received workspace's directory. *)
  open_s : float;
  capture_s : float;  (** Capture plus the atomic file write. *)
  apply_s : float;  (** File read, apply and the WAL sync. *)
  captured_triples : int;
  bundle_bytes : int;
}

(* Each transfer of a run writes its own bundle and received workspace:
   files are only removed when the run ends, because deleting the last
   transfer's files slows the next one's writes by whole tenths of a
   second, far more than the program's own work varies.

   [Bundle.capture_to_file] is [capture] then [write_file], and
   [apply_file] is [read_file] then [apply]; they are called apart here
   so the traced run can time each. The bundle carries the base
   documents, but apply restores excerpts only, as `slimpad apply
   --excerpts` does: creating a file per base document costs 0.05-0.25 s
   of kernel time that changes from run to run with the host's file
   system, more than the whole of apply's own work varies. *)
let transfers = ref 0

let transfer (o : Outcome.t) ~desk ~ws ~work () =
  incr transfers;
  let n = !transfers in
  let bundle = Filename.concat work (Printf.sprintf "handoff-%d.bundle" n) in
  let target = Filename.concat work (Printf.sprintf "received-%d" n) in
  let wal = Gen.wal_path ws in
  if Trace.on () then
    Trace.span "Si_wal.Log.open_" (fun () ->
        match Si_wal.Log.open_ wal with
        | Ok (log, _) -> ignore (Si_wal.Log.close log)
        | Error e -> failwith (Si_wal.Log.error_to_string e));
  let t0 = Clock.now () in
  let source, _ =
    get_ok "open_wal"
      (Trace.span "Slimpad.open_wal" (fun () -> Slimpad.open_wal desk wal))
  in
  let open_s = Clock.seconds_since t0 in
  let t0 = Clock.now () in
  let bytes, report =
    Trace.span "Si_bundle.capture" (fun () ->
        Bundle.capture ~bases:(Bundle.Layout.reader ~dir:ws) source)
  in
  get_ok "write bundle"
    (Trace.span "Si_bundle.write_file" (fun () ->
         Bundle.write_file ~path:bundle bytes));
  let capture_s = Clock.seconds_since t0 in
  Sys.mkdir target 0o755;
  let received, _ =
    get_ok "open_wal" (Slimpad.open_wal desk (Gen.wal_path target))
  in
  let t0 = Clock.now () in
  let read =
    Trace.span "Si_bundle.read_file" (fun () -> Bundle.read_file bundle)
  in
  let applied =
    Trace.span "Si_bundle.apply" (fun () ->
        Result.bind read (fun bytes ->
            Result.bind
              (Bundle.apply ~excerpts:true received bytes)
              (fun r -> Result.map (fun () -> r) (Slimpad.wal_sync received))))
  in
  let apply_s = Clock.seconds_since t0 in
  Outcome.check o (report.Bundle.capture_problems = [])
    (lazy "capture reported problems");
  (match applied with
  | Error e -> Outcome.check o false (lazy ("apply: " ^ e))
  | Ok r ->
      Outcome.check o
        (r.Bundle.apply_problems = []
        && r.Bundle.added_triples + r.Bundle.skipped_triples
           = report.Bundle.captured_triples
        && r.Bundle.installed_marks = report.Bundle.captured_marks
        && report.Bundle.captured_bases > 0)
        (lazy "apply did not install the whole bundle"));
  Outcome.check o
    (Bundle.content_digest bytes = Ok (Bundle.app_digest received))
    (lazy "applied workspace digest differs from the bundle's");
  {
    source;
    received;
    target;
    open_s;
    capture_s;
    apply_s;
    captured_triples = report.Bundle.captured_triples;
    bundle_bytes = String.length bytes;
  }

let close t =
  Gen.close_wal t.source;
  Gen.close_wal t.received

(* A transfer's timings, without the two pads it holds. *)
type times = { t_open : float; t_capture : float; t_apply : float }

(* [reps] transfers spread evenly over [seconds], each after a full
   major collection so that none pays for the garbage of the one before,
   and one more collection after the last, so that what runs next does
   not pay for it either. Transfer [i] starts at the [i]-th slot;
   spreading the transfers over the whole phase makes their median ride
   out the host's changes of speed instead of sampling one moment of
   it. *)
let spaced ~reps ~seconds transfer =
  let t0 = Clock.now () in
  let slot_ns = int_of_float (seconds *. 1e9) / reps in
  let times =
    Array.init reps (fun i ->
        let wait = t0 + (i * slot_ns) - Clock.now () in
        if wait > 0 then Unix.sleepf (Float.of_int wait *. 1e-9);
        Gc.compact ();
        let t = transfer () in
        close t;
        { t_open = t.open_s; t_capture = t.capture_s; t_apply = t.apply_s })
  in
  Gc.compact ();
  times

let report_times (o : Outcome.t) (times : times array) =
  let med f = Exact.median (Array.map f times) in
  let m = Outcome.metric o ~samples:(Array.length times) in
  m "open_s" "s" (med (fun t -> t.t_open));
  m "capture_s" "s" (med (fun t -> t.t_capture));
  m "apply_s" "s" (med (fun t -> t.t_apply))
