(* Seeded request streams, what each answer must be, and the checks.

   A stream is drawn per client from its own RNG, so a run replays the
   same requests for the same seed. Expected answers come from a model
   built once from the generated pad: reads of data no request writes
   must match exactly; reads that writes can change are checked against
   the write ledger, which bounds the answer by the writes acknowledged
   before the request was sent and the writes sent before its answer
   arrived (the two clients write concurrently). *)

module Proto = Si_serve.Proto
module Triple = Si_triple.Triple
module Trim = Si_triple.Trim
module Query = Si_query.Query
module Slimpad = Si_slimpad.Slimpad
module Dmi = Si_slim.Dmi
module Rng = Si_workload.Rng

(* Every workload runs two clients, each with its own stream. *)
let clients = 2

type cls = Point | Scan | Write | Resolve

let classes = [ Point; Scan; Write; Resolve ]

let by_class () =
  let t = Hashtbl.create 4 in
  List.iter (fun c -> Hashtbl.replace t c (Exact.samples ())) classes;
  t

let cls_name = function
  | Point -> "point"
  | Scan -> "scan"
  | Write -> "write"
  | Resolve -> "resolve"

(* Latency percentile [p] of each class's own samples, in microseconds,
   as the metric [<class>_p<p>_us]. *)
let report_percentile (o : Outcome.t) by_class ~classes p =
  List.iter
    (fun c ->
      let a = Exact.to_array (Hashtbl.find by_class c) in
      Outcome.metric o ~samples:(Array.length a)
        (Printf.sprintf "%s_p%d_us" (cls_name c) p)
        "us"
        (Float.of_int (Exact.percentile a p) /. 1e3))
    classes

(* The end-to-end latencies are medians. A class's p99 moved by more than
   a tenth between runs of the same code, so p99s are diagnostics that
   only the traced run reports. *)
let report_medians o by_class = report_percentile o by_class ~classes 50

let report_p99s o by_class =
  report_percentile o by_class ~classes:[ Point; Scan; Write ] 99

type expect =
  | Exact of Proto.response  (** Triples and pad lists in any order. *)
  | Count_of of string  (** A predicate that requests write to. *)
  | Rows_of of { limit : int; valid : string -> bool; total : int option }
      (** [min limit total] distinct valid rows; [total = None] means
          more than [limit] rows always exist. *)
  | Acked of [ `Add | `Remove ] * Triple.t

type req = {
  request : Proto.request;
  cls : cls;
  kind : string;
      (** Finer than the class: the request op, plus the query shape
          ([query.limit1], [query.topk], [query.join]) or the mark type
          of a resolved scrap ([resolve.xml]). *)
  expect : expect;
}

type query = { text : string; qkind : string; q_expect : expect }

type model = {
  written : string array;  (** Predicates that writes add rows to. *)
  base_count : (string, int) Hashtbl.t;  (** Rows per predicate. *)
  pair_count : (string * string, int) Hashtbl.t;
      (** Rows per (predicate, rendered object). *)
  by_subject : (string, string list) Hashtbl.t;  (** Sorted rows. *)
  rows : (string, unit) Hashtbl.t;  (** Every rendered base row. *)
  subjects : string array;  (** Point-read subjects. *)
  scraps : Gen.scrap array;
  resolved : (string, string) Hashtbl.t;  (** Label -> display. *)
  limit1 : query array;
  topk : query array;
  join : query array;
  pads : string list;
}

(* --- the model ------------------------------------------------------- *)

let rendered_rows (q : Query.t) trim =
  List.map Query.binding_to_string (Query.run trim q)

let limited_query trim ~qkind text =
  let q = Query.parse_exn text in
  let full = rendered_rows { q with Query.limit = None } trim in
  let set = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace set r ()) full;
  {
    text;
    qkind;
    q_expect =
      Rows_of
        {
          limit = Option.value q.Query.limit ~default:0;
          valid = Hashtbl.mem set;
          total = Some (List.length full);
        };
  }

let ordered_query trim text =
  {
    text;
    qkind = "topk";
    q_expect = Exact (Proto.Rows (rendered_rows (Query.parse_exn text) trim));
  }

let build ~(gen : Gen.t) ~written ~subjects ~limit1 ~topk ~join =
  let app = gen.Gen.app in
  let dmi = Slimpad.dmi app in
  let trim = Dmi.trim dmi in
  let base_count = Hashtbl.create 64 and pair_count = Hashtbl.create 4096 in
  let by_subject = Hashtbl.create 65536 and rows = Hashtbl.create 262144 in
  let bump tbl k =
    Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0)
  in
  List.iter
    (fun (t : Triple.t) ->
      let r = Triple.to_string t in
      bump base_count t.predicate;
      bump pair_count (t.predicate, Triple.obj_to_string t.object_);
      Hashtbl.replace rows r ();
      Hashtbl.replace by_subject t.subject
        (r :: Option.value (Hashtbl.find_opt by_subject t.subject) ~default:[]))
    (Trim.to_list trim);
  Hashtbl.filter_map_inplace
    (fun _ l -> Some (List.sort String.compare l))
    by_subject;
  let resolved = Hashtbl.create 1024 in
  Array.iter
    (fun (s : Gen.scrap) ->
      match Dmi.scrap_of_id dmi s.subject with
      | None -> ()
      | Some scrap -> (
          match Slimpad.double_click app scrap with
          | Ok res ->
              Hashtbl.replace resolved s.label res.Si_mark.Mark.res_display
          | Error _ -> ()))
    gen.Gen.scraps;
  {
    written;
    base_count;
    pair_count;
    by_subject;
    rows;
    subjects;
    scraps =
      Array.of_list
        (List.filter
           (fun (s : Gen.scrap) -> Hashtbl.mem resolved s.label)
           (Array.to_list gen.Gen.scraps));
    resolved;
    limit1 =
      Array.of_list (List.map (limited_query trim ~qkind:"limit1") limit1);
    topk = Array.of_list (List.map (ordered_query trim) topk);
    join = Array.of_list (List.map (limited_query trim ~qkind:"join") join);
    pads = List.map (Dmi.pad_name dmi) (Dmi.pads dmi);
  }

let note_predicate = "annotates"

(* The rounds model: point reads over every subject of the worksheet,
   annotation notes as the only writes, and small queries over scrap
   labels. *)
let worksheet_model ~seed (gen : Gen.t) =
  let trim = Dmi.trim (Slimpad.dmi gen.Gen.app) in
  let rng = Rng.create (seed lxor 0x9e47) in
  let label () =
    (gen.Gen.scraps.(Rng.int rng (Array.length gen.Gen.scraps))).Gen.label
  in
  build ~gen ~written:[| note_predicate |]
    ~subjects:(Array.of_list (Trim.subjects trim))
    ~limit1:
      [
        "select ?s where { ?s scrapName ?n } limit 1";
        "select ?h where { ?h markId ?m } limit 1";
      ]
    ~topk:
      [
        "select ?n where { ?s scrapName ?n } order by ?n desc limit 5";
        "select ?n where { ?b bundleName ?n } order by ?n limit 5";
      ]
    ~join:
      (List.init 32 (fun _ ->
           Printf.sprintf
             "select ?s ?h where { ?s scrapName \"%s\" . ?s scrapMark ?h } \
              limit 4"
             (label ())))

let corpus_model ~seed (gen : Gen.t) =
  let rng = Rng.create (seed lxor 0xc0de) in
  let hot () = Gen.term_id (Gen.skewed_term rng) in
  build ~gen ~written:Gen.fat_predicates
    ~subjects:(Array.init Gen.corpus_docs Gen.doc_id)
    ~limit1:
      (List.init 32 (fun i ->
           Printf.sprintf "select ?s where { ?s %s <%s> } limit 1"
             Gen.fat_predicates.(i mod 3) (hot ())))
    ~topk:
      (List.map
         (fun p ->
           Printf.sprintf
             "select ?o where { ?s %s ?o } order by ?o desc limit 10" p)
         (Array.to_list Gen.fat_predicates)
      @ [
          "select ?t where { ?s title ?t } order by ?t desc limit 10";
          "select ?y where { ?s year ?y } order by ?y limit 5";
        ])
    ~join:
      (List.init 32 (fun _ ->
           Printf.sprintf
             "select ?s ?t where { ?s mentions <%s> . ?s title ?t } limit 20"
             (hot ())))

(* --- the write ledger ------------------------------------------------ *)

type ledger = {
  sent_add : (string, int) Hashtbl.t;
  acked_add : (string, int) Hashtbl.t;
  sent_rm : (string, int) Hashtbl.t;
  acked_rm : (string, int) Hashtbl.t;
  sent_rows : (string, unit) Hashtbl.t;  (** Every row an Add sent. *)
  live : (Triple.t, unit) Hashtbl.t;  (** Acknowledged, not removed. *)
  gone : (Triple.t, unit) Hashtbl.t;  (** Acknowledged removals. *)
  mutable net : int;  (** Acknowledged adds minus removals. *)
  mutable acked_writes : int;
}

let ledger () =
  {
    sent_add = Hashtbl.create 8;
    acked_add = Hashtbl.create 8;
    sent_rm = Hashtbl.create 8;
    acked_rm = Hashtbl.create 8;
    sent_rows = Hashtbl.create 65536;
    live = Hashtbl.create 65536;
    gone = Hashtbl.create 1024;
    net = 0;
    acked_writes = 0;
  }

let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0
let bump tbl k = Hashtbl.replace tbl k (get tbl k + 1)

(* What a reader must remember at send time to bound a count later. *)
type pending = { req : req; acked_add_then : int; acked_rm_then : int }

let sent l (r : req) =
  match r.expect with
  | Acked (`Add, t) ->
      bump l.sent_add t.predicate;
      Hashtbl.replace l.sent_rows (Triple.to_string t) ();
      { req = r; acked_add_then = 0; acked_rm_then = 0 }
  | Acked (`Remove, t) ->
      bump l.sent_rm t.predicate;
      { req = r; acked_add_then = 0; acked_rm_then = 0 }
  | Count_of p ->
      {
        req = r;
        acked_add_then = get l.acked_add p;
        acked_rm_then = get l.acked_rm p;
      }
  | Exact _ | Rows_of _ -> { req = r; acked_add_then = 0; acked_rm_then = 0 }

let sorted = List.sort String.compare

let same_response (want : Proto.response) (got : Proto.response) =
  match (want, got) with
  | Triples a, Triples b | Pad_list a, Pad_list b -> sorted a = sorted b
  | a, b -> a = b

let distinct rows =
  let rec go = function
    | a :: (b :: _ as rest) -> a <> b && go rest
    | _ -> true
  in
  go (sorted rows)

(* Check an answer, updating the ledger for acknowledged writes.
   Returns [true] when the answer is correct. *)
let check m l p (got : Proto.response) =
  match (p.req.expect, got) with
  | Exact want, _ -> same_response want got
  | Count_of pred, Count_is n ->
      let base = get m.base_count pred in
      let lo = base + p.acked_add_then - get l.sent_rm pred in
      let hi = base + get l.sent_add pred - p.acked_rm_then in
      lo <= n && n <= hi
  | Rows_of { limit; valid; total }, (Triples rows | Rows rows) ->
      let want = match total with Some t -> min limit t | None -> limit in
      List.length rows = want && List.for_all valid rows && distinct rows
  | Acked (op, t), Ok_done ->
      l.acked_writes <- l.acked_writes + 1;
      (match op with
      | `Add ->
          bump l.acked_add t.predicate;
          Hashtbl.replace l.live t ();
          l.net <- l.net + 1
      | `Remove ->
          bump l.acked_rm t.predicate;
          Hashtbl.remove l.live t;
          Hashtbl.replace l.gone t ();
          l.net <- l.net - 1);
      true
  | _ -> false

(* --- streams --------------------------------------------------------- *)

type shape = Rounds | Corpus

type stream = {
  shape : shape;
  m : model;
  l : ledger;
  rng : Rng.t;
  tag : string;  (** Makes this stream's writes distinct from others'. *)
  mutable n : int;
  own : Triple.t Queue.t;  (** This stream's acknowledged adds. *)
}

let stream shape m l ~seed ~tag =
  { shape; m; l; rng = Rng.create seed; tag; n = 0; own = Queue.create () }

let pick s a = a.(Rng.int s.rng (Array.length a))

let exact_count pattern n =
  {
    request = Proto.Count pattern;
    cls = Point;
    kind = "count";
    expect = Exact (Count_is n);
  }

let subject_rows s subj =
  Option.value (Hashtbl.find_opt s.m.by_subject subj) ~default:[]

let point s =
  let m = s.m in
  match Rng.int s.rng 5 with
  | 0 ->
      let subj = pick s m.subjects in
      exact_count
        { Proto.any with p_subject = Some subj }
        (List.length (subject_rows s subj))
  | 1 ->
      let p = pick s m.written in
      {
        request = Proto.Count { Proto.any with p_predicate = Some p };
        cls = Point;
        kind = "count";
        expect = Count_of p;
      }
  | 2 -> (
      match s.shape with
      | Corpus ->
          let p = pick s Gen.fat_predicates in
          let o = Gen.term_id (Gen.skewed_term s.rng) in
          exact_count
            {
              Proto.p_subject = None;
              p_predicate = Some p;
              p_object = Some (Triple.Resource o);
            }
            (get m.pair_count (p, "<" ^ o ^ ">"))
      | Rounds ->
          exact_count
            { Proto.any with p_predicate = Some "scrapName" }
            (get m.base_count "scrapName"))
  | 3 ->
      let subj = pick s m.subjects in
      {
        request =
          Proto.Select
            { pattern = { Proto.any with p_subject = Some subj }; limit = 0 };
        cls = Point;
        kind = "select";
        expect = Exact (Triples (subject_rows s subj));
      }
  | _ ->
      {
        request = Proto.Pads;
        cls = Point;
        kind = "pads";
        expect = Exact (Pad_list m.pads);
      }

let query_req (q : query) =
  {
    request = Proto.Query q.text;
    cls = Scan;
    kind = "query." ^ q.qkind;
    expect = q.q_expect;
  }

let scan s =
  let m = s.m in
  (* Shares chosen so that the class median falls well inside one
     shape's cost mode and never on the boundary between two shapes of
     very different cost: on corpus 15% limit-1, 15% join, 55%
     fat-predicate Select (the median), 15% top-k; on the worksheet 10%
     limit-1, 60% join (the median), 30% top-k. *)
  match (s.shape, Rng.int s.rng 20) with
  | Corpus, n when n >= 6 && n < 17 ->
      let p = pick s Gen.fat_predicates in
      {
        request =
          Proto.Select
            { pattern = { Proto.any with p_predicate = Some p }; limit = 16 };
        cls = Scan;
        kind = "select";
        expect =
          Rows_of
            {
              limit = 16;
              valid =
                (fun r -> Hashtbl.mem m.rows r || Hashtbl.mem s.l.sent_rows r);
              total = None;
            };
      }
  | Corpus, (0 | 1 | 2) | Rounds, (0 | 1) ->
      query_req (pick s m.limit1)
  | _, n when n >= 14 -> query_req (pick s m.topk)
  | _ -> query_req (pick s m.join)

let resolve s =
  let sc = pick s s.m.scraps in
  {
    request = Proto.Resolve { pad = Gen.pad_name; scrap = sc.Gen.label };
    cls = Resolve;
    kind = "resolve." ^ sc.Gen.kind;
    expect = Exact (Resolved (Hashtbl.find s.m.resolved sc.Gen.label));
  }

(* A stream keeps at most [live_cap] of its own adds alive: once it
   holds that many it removes its oldest before adding again, so the pad
   stays the size the workload was chosen for however fast writes run. *)
let live_cap = 32

let write s =
  s.n <- s.n + 1;
  if Queue.length s.own >= live_cap then
    let t = Queue.pop s.own in
    {
      request = Proto.Remove t;
      cls = Write;
      kind = "remove";
      expect = Acked (`Remove, t);
    }
  else
    let t =
      match s.shape with
      | Rounds ->
          Triple.make
            (Printf.sprintf "note-%s-%d" s.tag s.n)
            note_predicate
            (Triple.Resource (pick s s.m.scraps).Gen.subject)
      | Corpus ->
          Triple.make
            (Printf.sprintf "add-%s-%d" s.tag s.n)
            (pick s Gen.fat_predicates)
            (Triple.Resource (Printf.sprintf "fresh-%s-%d" s.tag s.n))
    in
    {
      request = Proto.Add t;
      cls = Write;
      kind = "add";
      expect = Acked (`Add, t);
    }

(* Rounds: point reads, resolves, annotation writes (a third of all
   requests) and a few small queries. Corpus: point reads and scans in
   equal parts, a trickle of writes into the fat predicates, and a few
   resolves on the worksheet that shares the pad. *)
let next s =
  let point_, scan_, write_ =
    match s.shape with Rounds -> (40, 7, 33) | Corpus -> (45, 45, 8)
  in
  let d = Rng.int s.rng 100 in
  if d < point_ then point s
  else if d < point_ + scan_ then scan s
  else if d < point_ + scan_ + write_ then write s
  else resolve s

(* After an acknowledged add, the stream may later remove it. *)
let acknowledged s (r : req) =
  match r.expect with Acked (`Add, t) -> Queue.push t s.own | _ -> ()
