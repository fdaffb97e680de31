(* Keccak-f[1600] with rate 1088 / capacity 512 and the original Keccak
   multi-rate padding (0x01 ... 0x80), i.e. Ethereum's Keccak-256.

   Each 64-bit lane is stored as two unboxed native ints (low and high
   32-bit halves) in one flat int array: OCaml boxes Int64 values, and the
   split representation keeps the whole permutation allocation-free.  Lane
   i = x + 5y occupies slots 2i (low) and 2i+1 (high).

   The permutation is written out as straight-line rounds: every index,
   rotation amount and pi destination is a literal, theta/rho/pi/chi are
   fused over local lets, and the state array is updated in place.  There
   is no [mod 5] arithmetic, no tuple per lane and no scratch array, so a
   round is 100 loads and 50 stores plus register arithmetic.  The rotation
   offsets (rho) and the pi map the code was unrolled from are:

     rho, by lane x + 5y:  0  1 62 28 27 | 36 44  6 55 20 | 3 10 43 25 39
                          41 45 15 21  8 | 18  2 61 56 14
     pi:                   lane (x, y) moves to (y, 2x + 3y mod 5)

   A rotation by n < 32 of the pair (lo, hi) is
   (lo lsl n lor hi lsr (32-n), hi lsl n lor lo lsr (32-n)); n = 32 swaps
   the halves; n > 32 is a swap followed by a rotation by n - 32. *)

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

(* Every index below is a literal below 50 into the 50-slot state (or
   below 24 into a round-constant table), so the bounds checks are
   dropped. *)
let[@inline] get (a : int array) i = Array.unsafe_get a i
let[@inline] set (a : int array) i v = Array.unsafe_set a i v

let keccak_f s =
  for round = 0 to 23 do
    (* theta: column parities c, then d.(x) = c.(x-1) xor rotl1 c.(x+1). *)
    let c0l = get s 0 lxor get s 10 lxor get s 20 lxor get s 30 lxor get s 40 in
    let c0h = get s 1 lxor get s 11 lxor get s 21 lxor get s 31 lxor get s 41 in
    let c1l = get s 2 lxor get s 12 lxor get s 22 lxor get s 32 lxor get s 42 in
    let c1h = get s 3 lxor get s 13 lxor get s 23 lxor get s 33 lxor get s 43 in
    let c2l = get s 4 lxor get s 14 lxor get s 24 lxor get s 34 lxor get s 44 in
    let c2h = get s 5 lxor get s 15 lxor get s 25 lxor get s 35 lxor get s 45 in
    let c3l = get s 6 lxor get s 16 lxor get s 26 lxor get s 36 lxor get s 46 in
    let c3h = get s 7 lxor get s 17 lxor get s 27 lxor get s 37 lxor get s 47 in
    let c4l = get s 8 lxor get s 18 lxor get s 28 lxor get s 38 lxor get s 48 in
    let c4h = get s 9 lxor get s 19 lxor get s 29 lxor get s 39 lxor get s 49 in
    let d0l = c4l lxor (((c1l lsl 1) lor (c1h lsr 31)) land mask32) in
    let d0h = c4h lxor (((c1h lsl 1) lor (c1l lsr 31)) land mask32) in
    let d1l = c0l lxor (((c2l lsl 1) lor (c2h lsr 31)) land mask32) in
    let d1h = c0h lxor (((c2h lsl 1) lor (c2l lsr 31)) land mask32) in
    let d2l = c1l lxor (((c3l lsl 1) lor (c3h lsr 31)) land mask32) in
    let d2h = c1h lxor (((c3h lsl 1) lor (c3l lsr 31)) land mask32) in
    let d3l = c2l lxor (((c4l lsl 1) lor (c4h lsr 31)) land mask32) in
    let d3h = c2h lxor (((c4h lsl 1) lor (c4l lsr 31)) land mask32) in
    let d4l = c3l lxor (((c0l lsl 1) lor (c0h lsr 31)) land mask32) in
    let d4h = c3h lxor (((c0h lsl 1) lor (c0l lsr 31)) land mask32) in
    (* theta applied, then rho and pi: source lane i, rotated, is named
       b<pi(i)> after its destination lane. *)
    let b0l = get s 0 lxor d0l and b0h = get s 1 lxor d0h in
    let al = get s 2 lxor d1l and ah = get s 3 lxor d1h in
    let b10l = ((al lsl 1) lor (ah lsr 31)) land mask32
    and b10h = ((ah lsl 1) lor (al lsr 31)) land mask32 in
    let al = get s 4 lxor d2l and ah = get s 5 lxor d2h in
    let b20l = ((ah lsl 30) lor (al lsr 2)) land mask32
    and b20h = ((al lsl 30) lor (ah lsr 2)) land mask32 in
    let al = get s 6 lxor d3l and ah = get s 7 lxor d3h in
    let b5l = ((al lsl 28) lor (ah lsr 4)) land mask32
    and b5h = ((ah lsl 28) lor (al lsr 4)) land mask32 in
    let al = get s 8 lxor d4l and ah = get s 9 lxor d4h in
    let b15l = ((al lsl 27) lor (ah lsr 5)) land mask32
    and b15h = ((ah lsl 27) lor (al lsr 5)) land mask32 in
    let al = get s 10 lxor d0l and ah = get s 11 lxor d0h in
    let b16l = ((ah lsl 4) lor (al lsr 28)) land mask32
    and b16h = ((al lsl 4) lor (ah lsr 28)) land mask32 in
    let al = get s 12 lxor d1l and ah = get s 13 lxor d1h in
    let b1l = ((ah lsl 12) lor (al lsr 20)) land mask32
    and b1h = ((al lsl 12) lor (ah lsr 20)) land mask32 in
    let al = get s 14 lxor d2l and ah = get s 15 lxor d2h in
    let b11l = ((al lsl 6) lor (ah lsr 26)) land mask32
    and b11h = ((ah lsl 6) lor (al lsr 26)) land mask32 in
    let al = get s 16 lxor d3l and ah = get s 17 lxor d3h in
    let b21l = ((ah lsl 23) lor (al lsr 9)) land mask32
    and b21h = ((al lsl 23) lor (ah lsr 9)) land mask32 in
    let al = get s 18 lxor d4l and ah = get s 19 lxor d4h in
    let b6l = ((al lsl 20) lor (ah lsr 12)) land mask32
    and b6h = ((ah lsl 20) lor (al lsr 12)) land mask32 in
    let al = get s 20 lxor d0l and ah = get s 21 lxor d0h in
    let b7l = ((al lsl 3) lor (ah lsr 29)) land mask32
    and b7h = ((ah lsl 3) lor (al lsr 29)) land mask32 in
    let al = get s 22 lxor d1l and ah = get s 23 lxor d1h in
    let b17l = ((al lsl 10) lor (ah lsr 22)) land mask32
    and b17h = ((ah lsl 10) lor (al lsr 22)) land mask32 in
    let al = get s 24 lxor d2l and ah = get s 25 lxor d2h in
    let b2l = ((ah lsl 11) lor (al lsr 21)) land mask32
    and b2h = ((al lsl 11) lor (ah lsr 21)) land mask32 in
    let al = get s 26 lxor d3l and ah = get s 27 lxor d3h in
    let b12l = ((al lsl 25) lor (ah lsr 7)) land mask32
    and b12h = ((ah lsl 25) lor (al lsr 7)) land mask32 in
    let al = get s 28 lxor d4l and ah = get s 29 lxor d4h in
    let b22l = ((ah lsl 7) lor (al lsr 25)) land mask32
    and b22h = ((al lsl 7) lor (ah lsr 25)) land mask32 in
    let al = get s 30 lxor d0l and ah = get s 31 lxor d0h in
    let b23l = ((ah lsl 9) lor (al lsr 23)) land mask32
    and b23h = ((al lsl 9) lor (ah lsr 23)) land mask32 in
    let al = get s 32 lxor d1l and ah = get s 33 lxor d1h in
    let b8l = ((ah lsl 13) lor (al lsr 19)) land mask32
    and b8h = ((al lsl 13) lor (ah lsr 19)) land mask32 in
    let al = get s 34 lxor d2l and ah = get s 35 lxor d2h in
    let b18l = ((al lsl 15) lor (ah lsr 17)) land mask32
    and b18h = ((ah lsl 15) lor (al lsr 17)) land mask32 in
    let al = get s 36 lxor d3l and ah = get s 37 lxor d3h in
    let b3l = ((al lsl 21) lor (ah lsr 11)) land mask32
    and b3h = ((ah lsl 21) lor (al lsr 11)) land mask32 in
    let al = get s 38 lxor d4l and ah = get s 39 lxor d4h in
    let b13l = ((al lsl 8) lor (ah lsr 24)) land mask32
    and b13h = ((ah lsl 8) lor (al lsr 24)) land mask32 in
    let al = get s 40 lxor d0l and ah = get s 41 lxor d0h in
    let b14l = ((al lsl 18) lor (ah lsr 14)) land mask32
    and b14h = ((ah lsl 18) lor (al lsr 14)) land mask32 in
    let al = get s 42 lxor d1l and ah = get s 43 lxor d1h in
    let b24l = ((al lsl 2) lor (ah lsr 30)) land mask32
    and b24h = ((ah lsl 2) lor (al lsr 30)) land mask32 in
    let al = get s 44 lxor d2l and ah = get s 45 lxor d2h in
    let b9l = ((ah lsl 29) lor (al lsr 3)) land mask32
    and b9h = ((al lsl 29) lor (ah lsr 3)) land mask32 in
    let al = get s 46 lxor d3l and ah = get s 47 lxor d3h in
    let b19l = ((ah lsl 24) lor (al lsr 8)) land mask32
    and b19h = ((al lsl 24) lor (ah lsr 8)) land mask32 in
    let al = get s 48 lxor d4l and ah = get s 49 lxor d4h in
    let b4l = ((al lsl 14) lor (ah lsr 18)) land mask32
    and b4h = ((ah lsl 14) lor (al lsr 18)) land mask32 in
    (* chi, with iota folded into lane 0. *)
    set s 0 (b0l lxor (lnot b1l land b2l) lxor get rc_lo round);
    set s 1 (b0h lxor (lnot b1h land b2h) lxor get rc_hi round);
    set s 2 (b1l lxor (lnot b2l land b3l));
    set s 3 (b1h lxor (lnot b2h land b3h));
    set s 4 (b2l lxor (lnot b3l land b4l));
    set s 5 (b2h lxor (lnot b3h land b4h));
    set s 6 (b3l lxor (lnot b4l land b0l));
    set s 7 (b3h lxor (lnot b4h land b0h));
    set s 8 (b4l lxor (lnot b0l land b1l));
    set s 9 (b4h lxor (lnot b0h land b1h));
    set s 10 (b5l lxor (lnot b6l land b7l));
    set s 11 (b5h lxor (lnot b6h land b7h));
    set s 12 (b6l lxor (lnot b7l land b8l));
    set s 13 (b6h lxor (lnot b7h land b8h));
    set s 14 (b7l lxor (lnot b8l land b9l));
    set s 15 (b7h lxor (lnot b8h land b9h));
    set s 16 (b8l lxor (lnot b9l land b5l));
    set s 17 (b8h lxor (lnot b9h land b5h));
    set s 18 (b9l lxor (lnot b5l land b6l));
    set s 19 (b9h lxor (lnot b5h land b6h));
    set s 20 (b10l lxor (lnot b11l land b12l));
    set s 21 (b10h lxor (lnot b11h land b12h));
    set s 22 (b11l lxor (lnot b12l land b13l));
    set s 23 (b11h lxor (lnot b12h land b13h));
    set s 24 (b12l lxor (lnot b13l land b14l));
    set s 25 (b12h lxor (lnot b13h land b14h));
    set s 26 (b13l lxor (lnot b14l land b10l));
    set s 27 (b13h lxor (lnot b14h land b10h));
    set s 28 (b14l lxor (lnot b10l land b11l));
    set s 29 (b14h lxor (lnot b10h land b11h));
    set s 30 (b15l lxor (lnot b16l land b17l));
    set s 31 (b15h lxor (lnot b16h land b17h));
    set s 32 (b16l lxor (lnot b17l land b18l));
    set s 33 (b16h lxor (lnot b17h land b18h));
    set s 34 (b17l lxor (lnot b18l land b19l));
    set s 35 (b17h lxor (lnot b18h land b19h));
    set s 36 (b18l lxor (lnot b19l land b15l));
    set s 37 (b18h lxor (lnot b19h land b15h));
    set s 38 (b19l lxor (lnot b15l land b16l));
    set s 39 (b19h lxor (lnot b15h land b16h));
    set s 40 (b20l lxor (lnot b21l land b22l));
    set s 41 (b20h lxor (lnot b21h land b22h));
    set s 42 (b21l lxor (lnot b22l land b23l));
    set s 43 (b21h lxor (lnot b22h land b23h));
    set s 44 (b22l lxor (lnot b23l land b24l));
    set s 45 (b22h lxor (lnot b23h land b24h));
    set s 46 (b23l lxor (lnot b24l land b20l));
    set s 47 (b23h lxor (lnot b24h land b20h));
    set s 48 (b24l lxor (lnot b20l land b21l));
    set s 49 (b24h lxor (lnot b20h land b21h))
  done

(* XOR one 136-byte block of [src] at [off] into the rate lanes, then
   permute. *)
let absorb s src off =
  for w = 0 to (rate_bytes / 8) - 1 do
    let base = off + (8 * w) in
    let lo = Int32.to_int (String.get_int32_le src base) land mask32 in
    let hi = Int32.to_int (String.get_int32_le src (base + 4)) land mask32 in
    s.(2 * w) <- s.(2 * w) lxor lo;
    s.((2 * w) + 1) <- s.((2 * w) + 1) lxor hi
  done;
  keccak_f s

let digest msg =
  let s = Array.make 50 0 in
  let len = String.length msg in
  (* Full blocks are absorbed straight from [msg]; only the last, padded
     block is copied.  When the message ends one byte short of a block,
     the 0x01 and 0x80 padding bits share that byte (0x81). *)
  let full = len / rate_bytes * rate_bytes in
  let off = ref 0 in
  while !off < full do
    absorb s msg !off;
    off := !off + rate_bytes
  done;
  let last = Bytes.make rate_bytes '\000' in
  Bytes.blit_string msg full last 0 (len - full);
  Bytes.set last (len - full) '\001';
  Bytes.set last (rate_bytes - 1)
    (Char.chr (Char.code (Bytes.get last (rate_bytes - 1)) lor 0x80));
  absorb s (Bytes.unsafe_to_string last) 0;
  (* Squeeze 32 bytes (a single rate block suffices). *)
  let out = Bytes.create 32 in
  for w = 0 to 3 do
    Bytes.set_int32_le out (8 * w) (Int32.of_int s.(2 * w));
    Bytes.set_int32_le out ((8 * w) + 4) (Int32.of_int s.((2 * w) + 1))
  done;
  Bytes.unsafe_to_string out

let digest_hex msg = Hexutil.to_hex (digest msg)
let selector prototype = String.sub (digest prototype) 0 4
let selector_hex prototype = Hexutil.to_hex (selector prototype)

module Memo = struct
  type stats = { hits : int; misses : int }

  (* One memo table per domain (Domain.DLS): lookups are lock-free and
     never contend, at the cost of each worker warming its own table.
     Signature populations are small (a few hundred distinct prototypes
     per landscape), so the duplication is bytes, not megabytes. *)
  let slot =
    Domain.DLS.new_key (fun () ->
        ((Hashtbl.create 256 : (string, string) Hashtbl.t), ref 0, ref 0))

  let selector prototype =
    let tbl, hits, misses = Domain.DLS.get slot in
    match Hashtbl.find_opt tbl prototype with
    | Some s ->
        incr hits;
        s
    | None ->
        incr misses;
        let s = selector prototype in
        Hashtbl.replace tbl prototype s;
        s

  let stats () =
    let _, hits, misses = Domain.DLS.get slot in
    { hits = !hits; misses = !misses }

  let reset () =
    let tbl, hits, misses = Domain.DLS.get slot in
    Hashtbl.reset tbl;
    hits := 0;
    misses := 0
end
