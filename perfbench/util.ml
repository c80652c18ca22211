(* Clocks, order statistics and /proc readings shared by every workload. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank percentile of an unsorted sample ([q] in 0..100). *)
let percentile q (a : float array) =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n /. 100.)) - 1)))

(* Median of the middle two for even counts: steadier than nearest-rank
   on the handful of repeats a run affords. *)
let mid_median (a : float array) =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean (a : float array) =
  if Array.length a = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* Growable float buffer: latency samples, batch boundaries. *)
module Fbuf = struct
  type t = { mutable data : Float.Array.t; mutable len : int }

  let create () = { data = Float.Array.create 1024; len = 0 }

  let push b x =
    if b.len = Float.Array.length b.data then begin
      let d = Float.Array.create (2 * b.len) in
      Float.Array.blit b.data 0 d 0 b.len;
      b.data <- d
    end;
    Float.Array.unsafe_set b.data b.len x;
    b.len <- b.len + 1

  let to_array b = Array.init b.len (Float.Array.get b.data)
end

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      scan ())

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir
