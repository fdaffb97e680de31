(* Test-only reference Keccak-256: the permutation in readable
   loop-and-index form (lib/keccak/keccak.ml has it as straight-line
   rounds).  It lives here, outside the library, as the oracle for the
   differential test in t_keccak.ml.  Same lane-pair state layout: lane
   i = x + 5y occupies slots 2i (low 32 bits) and 2i+1 (high 32 bits). *)

let rounds = 24
let rate_bytes = 136 (* (1600 - 512) / 8 *)
let mask32 = 0xffffffff

(* Round constants, split into (low, high) 32-bit halves. *)
let rc_lo =
  [|
    0x00000001; 0x00008082; 0x0000808a; 0x80008000; 0x0000808b; 0x80000001;
    0x80008081; 0x00008009; 0x0000008a; 0x00000088; 0x80008009; 0x8000000a;
    0x8000808b; 0x0000008b; 0x00008089; 0x00008003; 0x00008002; 0x00000080;
    0x0000800a; 0x8000000a; 0x80008081; 0x00008080; 0x80000001; 0x80008008;
  |]

let rc_hi =
  [|
    0x00000000; 0x00000000; 0x80000000; 0x80000000; 0x00000000; 0x00000000;
    0x80000000; 0x80000000; 0x00000000; 0x00000000; 0x00000000; 0x00000000;
    0x00000000; 0x80000000; 0x80000000; 0x80000000; 0x80000000; 0x80000000;
    0x00000000; 0x80000000; 0x80000000; 0x80000000; 0x00000000; 0x80000000;
  |]

(* rho rotation offsets, indexed by x + 5*y. *)
let rotation_offsets =
  [|
    0; 1; 62; 28; 27;
    36; 44; 6; 55; 20;
    3; 10; 43; 25; 39;
    41; 45; 15; 21; 8;
    18; 2; 61; 56; 14;
  |]

(* pi destination index for each source index. *)
let pi_dest =
  Array.init 25 (fun src ->
      let x = src mod 5 and y = src / 5 in
      y + (5 * (((2 * x) + (3 * y)) mod 5)))

(* State layout: lane i occupies slots 2i (low) and 2i+1 (high). *)

let keccak_f state =
  let c = Array.make 10 0 in
  let b = Array.make 50 0 in
  for round = 0 to rounds - 1 do
    (* theta: column parities. *)
    for x = 0 to 4 do
      c.(2 * x) <-
        state.(2 * x)
        lxor state.(2 * (x + 5))
        lxor state.(2 * (x + 10))
        lxor state.(2 * (x + 15))
        lxor state.(2 * (x + 20));
      c.((2 * x) + 1) <-
        state.((2 * x) + 1)
        lxor state.((2 * (x + 5)) + 1)
        lxor state.((2 * (x + 10)) + 1)
        lxor state.((2 * (x + 15)) + 1)
        lxor state.((2 * (x + 20)) + 1)
    done;
    for x = 0 to 4 do
      let x4 = (x + 4) mod 5 and x1 = (x + 1) mod 5 in
      (* d = c[x-1] xor rotl1(c[x+1]) *)
      let lo1 = c.(2 * x1) and hi1 = c.((2 * x1) + 1) in
      let rot_lo = ((lo1 lsl 1) lor (hi1 lsr 31)) land mask32 in
      let rot_hi = ((hi1 lsl 1) lor (lo1 lsr 31)) land mask32 in
      let d_lo = c.(2 * x4) lxor rot_lo in
      let d_hi = c.((2 * x4) + 1) lxor rot_hi in
      for y = 0 to 4 do
        let i = 2 * (x + (5 * y)) in
        state.(i) <- state.(i) lxor d_lo;
        state.(i + 1) <- state.(i + 1) lxor d_hi
      done
    done;
    (* rho + pi into scratch b. *)
    for src = 0 to 24 do
      let n = rotation_offsets.(src) in
      let lo = state.(2 * src) and hi = state.((2 * src) + 1) in
      let rot_lo, rot_hi =
        if n = 0 then (lo, hi)
        else if n < 32 then
          ( ((lo lsl n) lor (hi lsr (32 - n))) land mask32,
            ((hi lsl n) lor (lo lsr (32 - n))) land mask32 )
        else if n = 32 then (hi, lo)
        else
          let n = n - 32 in
          ( ((hi lsl n) lor (lo lsr (32 - n))) land mask32,
            ((lo lsl n) lor (hi lsr (32 - n))) land mask32 )
      in
      let dst = pi_dest.(src) in
      b.(2 * dst) <- rot_lo;
      b.((2 * dst) + 1) <- rot_hi
    done;
    (* chi. *)
    for y = 0 to 4 do
      for x = 0 to 4 do
        let i = 2 * (x + (5 * y)) in
        let i1 = 2 * (((x + 1) mod 5) + (5 * y)) in
        let i2 = 2 * (((x + 2) mod 5) + (5 * y)) in
        state.(i) <- b.(i) lxor (lnot b.(i1) land b.(i2) land mask32);
        state.(i + 1) <-
          b.(i + 1) lxor (lnot b.(i1 + 1) land b.(i2 + 1) land mask32)
      done
    done;
    (* iota. *)
    state.(0) <- state.(0) lxor rc_lo.(round);
    state.(1) <- state.(1) lxor rc_hi.(round)
  done

let digest msg =
  let state = Array.make 50 0 in
  let len = String.length msg in
  let padded_len = ((len / rate_bytes) + 1) * rate_bytes in
  let padded = Bytes.make padded_len '\000' in
  Bytes.blit_string msg 0 padded 0 len;
  Bytes.set padded len '\001';
  Bytes.set padded (padded_len - 1)
    (Char.chr (Char.code (Bytes.get padded (padded_len - 1)) lor 0x80));
  (* Absorb. *)
  let block = ref 0 in
  while !block < padded_len do
    for w = 0 to (rate_bytes / 8) - 1 do
      let base = !block + (8 * w) in
      let lo =
        Char.code (Bytes.get padded base)
        lor (Char.code (Bytes.get padded (base + 1)) lsl 8)
        lor (Char.code (Bytes.get padded (base + 2)) lsl 16)
        lor (Char.code (Bytes.get padded (base + 3)) lsl 24)
      in
      let hi =
        Char.code (Bytes.get padded (base + 4))
        lor (Char.code (Bytes.get padded (base + 5)) lsl 8)
        lor (Char.code (Bytes.get padded (base + 6)) lsl 16)
        lor (Char.code (Bytes.get padded (base + 7)) lsl 24)
      in
      state.(2 * w) <- state.(2 * w) lxor lo;
      state.((2 * w) + 1) <- state.((2 * w) + 1) lxor hi
    done;
    keccak_f state;
    block := !block + rate_bytes
  done;
  (* Squeeze 32 bytes (a single rate block suffices). *)
  let out = Bytes.create 32 in
  for w = 0 to 3 do
    let lo = state.(2 * w) and hi = state.((2 * w) + 1) in
    Bytes.set out (8 * w) (Char.chr (lo land 0xff));
    Bytes.set out ((8 * w) + 1) (Char.chr ((lo lsr 8) land 0xff));
    Bytes.set out ((8 * w) + 2) (Char.chr ((lo lsr 16) land 0xff));
    Bytes.set out ((8 * w) + 3) (Char.chr ((lo lsr 24) land 0xff));
    Bytes.set out ((8 * w) + 4) (Char.chr (hi land 0xff));
    Bytes.set out ((8 * w) + 5) (Char.chr ((hi lsr 8) land 0xff));
    Bytes.set out ((8 * w) + 6) (Char.chr ((hi lsr 16) land 0xff));
    Bytes.set out ((8 * w) + 7) (Char.chr ((hi lsr 24) land 0xff))
  done;
  Bytes.to_string out
