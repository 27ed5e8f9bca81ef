(* Monotonic nanoseconds (clock_gettime), for every timing the
   benchmark takes. *)
let now () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = Float.of_int (now () - t0) *. 1e-9
