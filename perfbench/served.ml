(* The served workloads: a real `slimpad serve` process on a generated
   workspace, driven closed-loop over TCP by two clients that share this
   process's single thread (each connection has one request in flight;
   whichever answers first gets its next request). *)

module Proto = Si_serve.Proto
module Tcp = Si_wal.Tcp
module Slimpad = Si_slimpad.Slimpad
module Trim = Si_triple.Trim
module Dmi = Si_slim.Dmi

let get_ok = Gen.get_ok
let workers = 2

(* --- the server process ---------------------------------------------- *)

type server = { pid : int; port : int }

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

(* "pad server on 127.0.0.1:PORT (...)" is the server's first line. *)
let port_of_banner text =
  let marker = "pad server on 127.0.0.1:" in
  let m = String.length marker in
  let rec find i =
    if i + m > String.length text then None
    else if String.sub text i m = marker then
      let j = ref (i + m) in
      while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do
        incr j
      done;
      int_of_string_opt (String.sub text (i + m) (!j - i - m))
    else find (i + 1)
  in
  find 0

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

let start_server ~exe ~dir =
  let log = dir ^ ".out" in
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process exe
      [|
        exe; "serve"; dir; "--addr"; "127.0.0.1:0";
        "--workers"; string_of_int workers;
      |]
      Unix.stdin out out
  in
  Unix.close out;
  let deadline = Clock.now () + 60_000_000_000 in
  let rec wait () =
    match port_of_banner (read_file log) with
    | Some port -> { pid; port }
    | None -> (
        match Unix.waitpid [ WNOHANG ] pid with
        | 0, _ when Clock.now () < deadline ->
            Unix.sleepf 0.002;
            wait ()
        | 0, _ ->
            kill pid;
            failwith "server did not start within 60 s"
        | _ -> failwith ("server exited at start: " ^ read_file log))
  in
  wait ()

let connect port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd TCP_NODELAY true;
  fd

let rpc fd req =
  Result.bind (Tcp.send_frame fd (Proto.encode_request req)) (fun () ->
      Result.bind (Tcp.recv_frame fd) Proto.decode_response)

(* Stop through the protocol and wait for a clean exit. *)
let shutdown (o : Outcome.t) server fd =
  let answered = rpc fd Proto.Shutdown = Ok Proto.Closing in
  let deadline = Clock.now () + 60_000_000_000 in
  let rec wait () =
    match Unix.waitpid [ WNOHANG ] server.pid with
    | 0, _ when Clock.now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        kill server.pid;
        false
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  Outcome.check o (answered && wait ())
    (lazy "server did not shut down cleanly")

(* VmHWM of a process, in MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  String.split_on_char '\n' status
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                 Float.of_int kb /. 1024.)
         | _ -> None)
  |> Option.value ~default:nan

(* --- Stats ----------------------------------------------------------- *)

type stats = Si_obs.Registry.snapshot

let stats fd : stats =
  match rpc fd Proto.Stats with
  | Ok (Stats_json text) -> (
      match Result.bind (Si_obs.Json.of_string text) Si_obs.Report.of_json with
      | Ok s -> s
      | Error e -> failwith ("stats: " ^ e))
  | _ -> failwith "stats request failed"

let counter (s : stats) name =
  Option.value (List.assoc_opt name s.Si_obs.Registry.counters) ~default:0

(* Exact count and sum (ns) of a server histogram. *)
let hist (s : stats) name =
  match List.assoc_opt name s.Si_obs.Registry.histograms with
  | Some h -> (h.Si_obs.Histogram.s_count, h.Si_obs.Histogram.s_sum)
  | None -> (0, 0)

(* --- the closed loop ------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  stream : Mix.stream;
  mutable inflight : (Mix.pending * int) option;  (** With its send time. *)
}

(* The measured window is served in chunks of whole seconds (handoffs
   run between them, see [run]); [per_second] counts completions in each
   second of serving. *)
type window = {
  by_class : (Mix.cls, Exact.samples) Hashtbl.t;
  by_op : (string, int * int) Hashtbl.t;  (** RTT sum and count per op. *)
  mutable sent : int;
  per_second : int array;
  mutable chunk_start_ns : int;
  mutable chunk_first : int;  (** Index of the chunk's first second. *)
  mutable chunk_len : int;
}

let window ~seconds =
  {
    by_class = Mix.by_class ();
    by_op = Hashtbl.create 8;
    sent = 0;
    per_second = Array.make (max 1 seconds) 0;
    chunk_start_ns = Clock.now ();
    chunk_first = 0;
    chunk_len = max 1 seconds;
  }

(* Requests per second: the median over the seconds served, so a few
   seconds in which the host ran slow do not decide the figure. *)
let ops_per_s w =
  let served = w.chunk_first + w.chunk_len in
  Float.of_int (Exact.median (Array.sub w.per_second 0 served))

let op_rtt w op = Option.value (Hashtbl.find_opt w.by_op op) ~default:(0, 0)

let send (o : Outcome.t) w c =
  let r = Mix.next c.stream in
  let p = Mix.sent c.stream.Mix.l r in
  w.sent <- w.sent + 1;
  let t0 = Clock.now () in
  match Tcp.send_frame c.fd (Proto.encode_request r.Mix.request) with
  | Ok () -> c.inflight <- Some (p, t0)
  | Error e -> Outcome.check o false (lazy ("send: " ^ e))

let receive (o : Outcome.t) ~record w c =
  match c.inflight with
  | None -> ()
  | Some (p, t0) -> (
      c.inflight <- None;
      match Result.bind (Tcp.recv_frame c.fd) Proto.decode_response with
      | Error e -> Outcome.check o false (lazy ("transport: " ^ e))
      | Ok got ->
          let rtt = Clock.now () - t0 in
          let r = p.Mix.req in
          let ok = Mix.check c.stream.Mix.m c.stream.Mix.l p got in
          if ok then Mix.acknowledged c.stream r;
          Outcome.check o ok
            (lazy (Printf.sprintf "wrong answer to %s" r.Mix.kind));
          if record then begin
            (* Answers drained after the chunk's end count to its last
               second. *)
            let second =
              w.chunk_first
              + min (w.chunk_len - 1)
                  ((Clock.now () - w.chunk_start_ns) / 1_000_000_000)
            in
            w.per_second.(second) <- w.per_second.(second) + 1;
            Exact.add (Hashtbl.find w.by_class r.Mix.cls) rtt;
            let op = Proto.request_op r.Mix.request in
            let sum, n = op_rtt w op in
            Hashtbl.replace w.by_op op (sum + rtt, n + 1)
          end)

(* Keep every connection busy until [until_ns], then drain. *)
let drive o conns ~until_ns ~record w =
  Array.iter (fun c -> send o w c) conns;
  let busy () = Array.exists (fun c -> c.inflight <> None) conns in
  while busy () do
    let fds =
      Array.to_list conns
      |> List.filter_map (fun c ->
             if c.inflight <> None then Some c.fd else None)
    in
    match Unix.select fds [] [] 5.0 with
    | [], _, _ -> failwith "no answer from the server within 5 s"
    | ready, _, _ ->
        List.iter
          (fun fd ->
            let c = List.find (fun c -> c.fd = fd) (Array.to_list conns) in
            receive o ~record w c;
            if Clock.now () < until_ns && c.inflight = None then send o w c)
          ready
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

(* --- the workload ----------------------------------------------------- *)

let warmup_s = 1

type shape = Mix.shape

let generate (shape : shape) ~seed =
  match shape with Corpus -> Gen.corpus ~seed | Rounds -> Gen.rounds ~seed

let model (shape : shape) ~seed gen =
  match shape with
  | Corpus -> Mix.corpus_model ~seed gen
  | Rounds -> Mix.worksheet_model ~seed gen

(* WAL records journaled on the handed-off copy of the pad, for the
   handoff to replay. *)
let tail_records = 10_000

(* The measured window is served in [chunks] chunks. In the gap after
   each chunk the clients stop, the server idles, and this process does
   the rest of the run's measured work: some of the repeated set-ups and
   handoffs for half as long as the chunk (at least one). A shared
   2-vCPU VM changes speed over tens of seconds, so every metric samples
   the whole run rather than one end of it. One handoff before
   the window, untimed, warms the handoff path up and sets how many fit
   in a gap: each gets a slot a quarter longer than the warm-up took
   (about 0.1 s on rounds and 1.8 s on corpus, collections included). *)
let chunks = 10

(* Set-ups per run, the first included: a rounds set-up takes about a
   twelfth of a second, a corpus one over a second. *)
let setups (shape : shape) =
  match shape with Corpus -> 5 | Rounds -> 20

let replay_requests (shape : shape) =
  match shape with Corpus -> 4_000 | Rounds -> 20_000

(* Generate the pad, write the [i]-th workspace and start a server on
   it, timed as one set-up. *)
let setup shape ~seed ~exe ~work i =
  let ws = Filename.concat work (Printf.sprintf "served-%d" i) in
  let t0 = Clock.now () in
  let gen = generate shape ~seed in
  Gen.write_workspace gen ws;
  Gen.close_wal gen.Gen.app;
  let server = start_server ~exe ~dir:ws in
  (gen, ws, server, Clock.seconds_since t0)

(* A set-up repeated for its time only: its server is stopped again. *)
let setup_again (o : Outcome.t) shape ~seed ~exe ~work i =
  let _, _, server, took = setup shape ~seed ~exe ~work i in
  let fd = connect server.port in
  shutdown o server fd;
  Unix.close fd;
  took

let ratio a b = Float.of_int a /. Float.of_int b

let run (o : Outcome.t) (shape : shape) ~seed ~seconds ~trace ~exe ~work =
  let gen, ws, server, first_setup_s = setup shape ~seed ~exe ~work 0 in
  let setup_triples = Trim.size (Dmi.trim (Slimpad.dmi gen.Gen.app)) in
  let m = model shape ~seed gen in
  (* The handoff works on a copy of the pad that the server does not
     hold: the same generated pad in its own workspace, with a fixed
     seeded WAL tail on top of its snapshot. *)
  let handed = Filename.concat work "handed-off" in
  Gen.write_workspace gen handed;
  Gen.journal_tail ~seed gen.Gen.app ~records:tail_records;
  Gen.close_wal gen.Gen.app;
  let transfer = Handoff.transfer o ~desk:gen.Gen.desk ~ws:handed ~work in
  let ledger = Mix.ledger () in
  let conns =
    Array.init Mix.clients (fun c ->
        {
          fd = connect server.port;
          stream =
            Mix.stream shape m ledger ~seed:((seed * 7919) + c)
              ~tag:(Printf.sprintf "c%d" c);
          inflight = None;
        })
  in
  let control = conns.(0).fd in
  drive o conns ~until_ns:(Clock.now () + (warmup_s * 1_000_000_000))
    ~record:false (window ~seconds:warmup_s);
  let before = stats control in
  let wal_before = Gen.file_size (Gen.wal_path ws) in
  let writes_before = ledger.Mix.acked_writes in
  let w = window ~seconds in
  let chunks = min chunks (max 1 seconds) in
  w.chunk_len <- max 1 (seconds / chunks);
  let repeats = if trace then 0 else setups shape - 1 in
  let setup_s = ref [ first_setup_s ] in
  (* The gap after chunk [i]: its share of the repeated set-ups, then
     handoffs, each after a full collection (see [Handoff.spaced]). *)
  let gap =
    if trace then fun _ -> [||]
    else begin
      let t0 = Clock.now () in
      ignore (Handoff.spaced transfer ~seconds:0. ~reps:1);
      let slot_s = 1.25 *. Clock.seconds_since t0 in
      let handoff_s = Float.of_int w.chunk_len /. 2. in
      let reps = max 1 (int_of_float (handoff_s /. slot_s)) in
      fun i ->
        for k = i * repeats / chunks to ((i + 1) * repeats / chunks) - 1 do
          setup_s := setup_again o shape ~seed ~exe ~work (k + 1) :: !setup_s
        done;
        Handoff.spaced transfer ~seconds:handoff_s ~reps
    end
  in
  let times =
    List.init chunks (fun i ->
        w.chunk_start_ns <- Clock.now ();
        w.chunk_first <- i * w.chunk_len;
        drive o conns
          ~until_ns:(w.chunk_start_ns + (w.chunk_len * 1_000_000_000))
          ~record:true w;
        gap i)
    |> Array.concat
  in
  let after = stats control in
  let writes = ledger.Mix.acked_writes - writes_before in
  let wal_growth = Gen.file_size (Gen.wal_path ws) - wal_before in
  let rss = peak_rss_mb server.pid in
  (* Counter reconciliation: the server counted exactly the requests
     sent between the two Stats requests, plus the second Stats itself. *)
  let delta name = counter after name - counter before name in
  Outcome.check o
    (delta "server.request" = w.sent + 1)
    (lazy
      (Printf.sprintf "server.request moved by %d for %d requests"
         (delta "server.request") (w.sent + 1)));
  Outcome.check o (counter after "server.proto_error" = 0)
    (lazy "server.proto_error is not 0");
  let op_delta op =
    let c1, s1 = hist after ("server.req." ^ op)
    and c0, s0 = hist before ("server.req." ^ op) in
    (c1 - c0, s1 - s0)
  in
  Hashtbl.iter
    (fun op (_, n) ->
      Outcome.check o
        (fst (op_delta op) = n)
        (lazy (Printf.sprintf "server.req.%s does not count the %d sent" op n)))
    w.by_op;
  shutdown o server control;
  Array.iter (fun c -> Unix.close c.fd) conns;
  (* Acknowledged writes survive the restart, and nothing else changed. *)
  let app, _ =
    get_ok "reopen" (Slimpad.open_wal gen.Gen.desk (Gen.wal_path ws))
  in
  let trim = Dmi.trim (Slimpad.dmi app) in
  Hashtbl.iter
    (fun t () ->
      Outcome.check o (Trim.mem trim t)
        (lazy ("acknowledged add lost: " ^ Si_triple.Triple.to_string t)))
    ledger.Mix.live;
  Hashtbl.iter
    (fun t () ->
      Outcome.check o (not (Trim.mem trim t))
        (lazy ("acknowledged remove undone: " ^ Si_triple.Triple.to_string t)))
    ledger.Mix.gone;
  let live = Trim.size trim in
  Outcome.check o
    (live = setup_triples + ledger.Mix.net)
    (lazy
      (Printf.sprintf "reopened pad holds %d triples, expected %d" live
         (setup_triples + ledger.Mix.net)));
  (* Disk use of the pad as it stands, not of however long a log the
     session happened to write. *)
  get_ok "compact" (Slimpad.wal_compact app);
  let disk_per_triple = ratio (Gen.disk_bytes ws) live in
  Gen.close_wal app;
  if not trace then begin
    let mt = Outcome.metric o in
    Outcome.metric o ~samples:(w.chunk_first + w.chunk_len) "ops_per_s" "1/s"
      (ops_per_s w);
    Mix.report_medians o w.by_class;
    Handoff.report_times o times;
    mt "peak_rss_mb" "MiB" rss;
    mt "disk_bytes_per_triple" "B" disk_per_triple;
    Outcome.metric o ~samples:(List.length !setup_s) "setup_s" "s"
      (Exact.median (Array.of_list !setup_s))
  end
  else begin
    let mt = Outcome.metric o in
    Mix.report_p99s o w.by_class;
    Hashtbl.iter
      (fun op (sum, n) ->
        let c, s = op_delta op in
        let server_mean = ratio s c /. 1e3 in
        Outcome.metric o ~samples:c ("serve.server_us." ^ op) "us" server_mean;
        Outcome.metric o ~samples:n ("serve.wire_us." ^ op) "us"
          ((ratio sum n /. 1e3) -. server_mean))
      w.by_op;
    let writer_requests =
      List.fold_left
        (fun acc op -> acc + snd (op_rtt w op))
        0 [ "add"; "remove"; "resolve" ]
    in
    mt "serve.writer_contended_share" "1"
      (ratio (delta "check.lock.contended.server.writer") writer_requests);
    mt "wal.syncs_per_write" "1" (ratio (delta "wal.fsync") writes);
    mt "wal.bytes_per_write" "B" (ratio wal_growth writes);
    let fresh = delta "mark.resolve" in
    mt "mark.fresh_share" "1"
      (ratio fresh (fresh + delta "mark.resolve_error"));
    Replay.run o ~shape ~seed ~work ~requests:(replay_requests shape) transfer
      ~model_of:(fun app ->
        model shape ~seed { gen with Gen.app; scraps = Gen.resolvable app })
  end
