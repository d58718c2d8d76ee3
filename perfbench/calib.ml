(* The reference speed.  The benchmark's host shares its cores with
   other machines' work: its speed wanders by a quarter or more over
   minutes, and every timing of a run moves with it.  So while a run's
   timed intervals (ops, serve sessions) execute, a sampler thread
   times a fixed kernel of the benchmark's own (random reads and writes
   over a 32 MB table, which miss the caches as the optimizer's graph
   walks do; no allocation, no call into the program) every quarter
   second, and the run reports its end-to-end times rescaled to the
   speed at which the kernel takes [ref_s]:

     reported = measured * ref_s / median (kernel times)

   A change to the program moves the reported time as it moves the
   measured one; a change of the host's speed moves the measured times
   and the kernel together.  Each round of a run is rescaled by the
   kernel times taken during that round, so a phase change within a run
   weighs on the kernel as it weighs on the round; set-up, timed between
   rounds, by all of the run's (a workload may report it as measured
   instead).  The sampler shares the program's domain,
   so it samples the core the program runs on, long ops included, and
   takes about 2% of the timed intervals from them.  The measured times
   are kept for the per-layer metrics and the stderr summary. *)

let now = Unix.gettimeofday

(* The kernel's time at the reference speed: about its median on a
   2-core development host. *)
let ref_s = 0.004

(* Outside the OCaml heap, so that it does not change how the collector
   paces the program's heap, and made on the first sample, so that the
   set-up probes (the same executable) do not pay for it.  [table_mb]
   is its share of the peak RSS, which the report leaves out. *)
let words = 1 lsl 22

let table =
  lazy
    (let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words in
     Bigarray.Array1.fill t 0;
     t)

let table_mb () = if Lazy.is_val table then float_of_int (words * (Sys.word_size / 8)) /. 1048576. else 0.

let kernel () =
  let table = Lazy.force table in
  let mask = words - 1 in
  let x = ref 0x2545f491 in
  for _ = 1 to 200_000 do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    let i = v land mask in
    Bigarray.Array1.unsafe_set table i (Bigarray.Array1.unsafe_get table i + (v land 0xff))
  done

let samples = ref []

let sample () =
  let t0 = now () in
  kernel ();
  samples := (now () -. t0) :: !samples

(* The sampler thread samples while [active]; it is started by the first
   [during] and ended by [stop]. *)
let active = Atomic.make false
let stopping = Atomic.make false

let sampler =
  lazy
    (Thread.create
       (fun () ->
         while not (Atomic.get stopping) do
           Thread.delay 0.25;
           if Atomic.get active then sample ()
         done)
       ())

(* [f ()] with the sampler on. *)
let during f =
  ignore (Lazy.force sampler);
  Atomic.set active true;
  Fun.protect ~finally:(fun () -> Atomic.set active false) f

let stop () =
  if Lazy.is_val sampler then begin
    Atomic.set stopping true;
    Thread.join (Lazy.force sampler)
  end

let count () = List.length !samples

(* Multiply a time measured since [count () = mark] by this to get it at
   the reference speed; with fewer than three samples since then, the
   whole run's samples are used. *)
let factor ?(mark = 0) () =
  if !samples = [] then sample ();
  let recent = List.filteri (fun i _ -> i < count () - mark) !samples in
  let s = if List.length recent >= 3 then recent else !samples in
  ref_s /. Stats.median (Array.of_list s)
