(* The traced run: replay a workload's seeded request stream in this
   process through the calls the server makes, once without spans and
   once with them, after a traced handoff of the same workspace. The
   per-layer metrics come from the traced pass; the ratio of the two
   passes' times is the tracing overhead. *)

(* One request of [stream] against [app] in process — through the
   protocol codec and the server's dispatch calls, with no socket — with
   its answer checked. *)
let request (o : Outcome.t) ~id app (stream : Mix.stream) =
  let r = Mix.next stream in
  let p = Mix.sent stream.Mix.l r in
  match
    Trace.request id ("request." ^ r.Mix.kind) (fun () ->
        Exec.loopback app ~kind:r.Mix.kind r.Mix.request)
  with
  | Ok got ->
      let ok = Mix.check stream.Mix.m stream.Mix.l p got in
      if ok then Mix.acknowledged stream r;
      Outcome.check o ok
        (lazy (Printf.sprintf "wrong answer to %s" r.Mix.kind))
  | Error e -> Outcome.check o false (lazy ("codec: " ^ e))

(* [requests] requests of the two clients' streams, alternating. *)
let pass (o : Outcome.t) ~shape ~model ~ledger ~seed ~tag ~requests app =
  let streams =
    Array.init Mix.clients (fun c ->
        Mix.stream shape model ledger ~seed:((seed * 7919) + c)
          ~tag:(Printf.sprintf "%s%d" tag c))
  in
  Gc.compact ();
  let t0 = Clock.now () in
  for i = 0 to requests - 1 do
    request o ~id:(i + 1) app streams.(i mod Array.length streams)
  done;
  Clock.now () - t0

(* Close the handoff and turn the recorded spans into metrics. *)
let report (o : Outcome.t) ~work ~requests t ~untraced ~traced =
  Handoff.close t;
  let spans = Trace.spans () in
  Trace.write_jsonl (work ^ ".trace.jsonl") spans;
  Layers.report o (Layers.of_spans spans) ~requests
    ~bundle_bytes_per_triple:
      (Float.of_int t.Handoff.bundle_bytes
      /. Float.of_int t.Handoff.captured_triples)
    ~overhead:((Float.of_int traced /. Float.of_int untraced) -. 1.)

(* Trace one handoff of the session's workspace, then replay [requests]
   requests against the opened pad, with answers expected from
   [model_of] that pad. *)
let run (o : Outcome.t) ~shape ~model_of ~seed ~work ~requests transfer =
  Trace.start ();
  Fun.protect ~finally:Trace.stop (fun () ->
      let t = transfer () in
      Trace.pause ();
      let app = t.Handoff.source in
      let model = model_of app and ledger = Mix.ledger () in
      let untraced =
        pass o ~shape ~model ~ledger ~seed ~tag:"u" ~requests app
      in
      Trace.resume ();
      let traced = pass o ~shape ~model ~ledger ~seed ~tag:"t" ~requests app in
      Trace.pause ();
      report o ~work ~requests t ~untraced ~traced)
