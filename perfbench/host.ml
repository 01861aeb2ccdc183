(* Clocks, the calibration kernel, process accounting and order
   statistics: everything the workloads share about measuring this host. *)

(* Monotonic time in seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* CPU time (user + system) of this process, in seconds. *)
let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- calibration kernel --- *)

(* A fixed amount of allocation-free integer work, about 5 ms here: xorshift
   rounds in registers, then read-modify-write passes over a 4 MiB int array
   allocated once at start-up. The work is a constant, so a "kernel unit"
   means the same on every commit; only the host's speed varies. The two
   halves answer the host's phases in opposite directions, and their sum
   tracks the program's allocation-heavy ops where either half alone
   drifted by 8-25% (see README.md). *)
let kernel_rounds = 625_000
let kernel_passes = 4
let kernel_buffer = Array.make (1 lsl 19) 0

let kernel () =
  let x = ref 0x2545F4914F6CDD1D in
  for _ = 1 to kernel_rounds do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  let a = kernel_buffer in
  for p = 1 to kernel_passes do
    for i = 0 to Array.length a - 1 do
      Array.unsafe_set a i (Array.unsafe_get a i + p)
    done
  done;
  !x + a.(0)

(* Seconds [k] kernels, run back to back, take right now. *)
let time_kernels k =
  let t0 = now () in
  for _ = 1 to k do
    ignore (Sys.opaque_identity (kernel ()))
  done;
  now () -. t0

let cal () = time_kernels 1

(* The kernel's median time on the 2-vCPU host the benchmark was tuned on.
   Set-up time is reported as kernel units times this: seconds of that
   host, so that the host's speed cancels out of setup_s too. *)
let reference_kernel_s = 0.0055

(* --- /proc accounting (Linux) --- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set size (VmHWM) of [pid], in MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* CPU time (user + system, all threads) of another process, in seconds,
   from /proc/PID/stat clock ticks (USER_HZ = 100 on Linux). *)
let cpu_of_pid pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* The command name may hold spaces; fields restart after its ')'. *)
  let rest =
    let i = String.rindex stat ')' in
    String.sub stat (i + 2) (String.length stat - i - 2)
  in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* utime and stime are fields 14 and 15 of the whole line, 12 and 13
     counted from the state field. *)
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.

(* --- order statistics --- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [q] in (0, 1]. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(Int.max 0 (Int.min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs = percentile xs 0.5

(* How many samples lie strictly beyond the [q] percentile. *)
let beyond xs q =
  let p = percentile xs q in
  List.length (List.filter (fun x -> x > p) xs)

let sum = List.fold_left ( +. ) 0.
let ratio a b = if b > 0. then a /. b else 0.
