(* What one run reports: operations attempted and failed, each failure
   described on stderr, and the metrics printed as the final JSON line,
   after a line giving the number of samples behind each metric. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** Newest first, at most [keep]. *)
  mutable metrics : (string * float * string * int) list;
      (** Name, value, unit and sample count; newest first. *)
}

let keep = 20
let create () = { attempted = 0; failed = 0; problems = []; metrics = [] }

(* Count one operation; a false [ok] counts it as failed. *)
let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.problems < keep then
      t.problems <- Lazy.force what :: t.problems
  end

let metric ?(samples = 1) t name unit value =
  t.metrics <- (name, value, unit, samples) :: t.metrics

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let print t =
  List.iter (Printf.eprintf "check failed: %s\n") (List.rev t.problems);
  let metrics = List.rev t.metrics in
  Printf.printf "{\"samples\": {%s}}\n"
    (String.concat ", "
       (List.map (fun (name, _, _, n) -> Printf.sprintf "%S: %d" name n) metrics));
  let metrics =
    List.map
      (fun (name, v, unit, _) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n%!"
    (t.failed = 0) (max 1 t.attempted) t.failed
    (String.concat ", " metrics)
