type error =
  | Stack_underflow of Opcode.t
  | Stack_overflow of Opcode.t
  | Invalid_jump of int
  | Invalid_opcode of int
  | Out_of_gas
  | Static_write of Opcode.t
  | Call_depth_exceeded
  | Return_data_out_of_bounds
  | Code_too_large of int
  | Create_collision of Address.t
  | Insufficient_balance
  | Step_limit_exceeded

let error_to_string = function
  | Stack_underflow op -> "stack underflow at " ^ Opcode.name op
  | Stack_overflow op -> "stack overflow at " ^ Opcode.name op
  | Invalid_jump pc -> Printf.sprintf "invalid jump destination 0x%x" pc
  | Invalid_opcode b -> Printf.sprintf "invalid opcode 0x%02x" b
  | Out_of_gas -> "out of gas"
  | Static_write op -> "state modification in static context at " ^ Opcode.name op
  | Call_depth_exceeded -> "call depth limit exceeded"
  | Return_data_out_of_bounds -> "return data access out of bounds"
  | Code_too_large n -> Printf.sprintf "deployed code too large (%d bytes)" n
  | Create_collision a -> "create collision at " ^ Address.to_hex a
  | Insufficient_balance -> "insufficient balance for transfer"
  | Step_limit_exceeded -> "emulation step limit exceeded"

type status = Returned | Reverted | Failed of error

type log_entry = { log_address : Address.t; topics : U256.t list; data : string }

type result = {
  status : status;
  return_data : string;
  gas_used : int;
  logs : log_entry list;
  created : Address.t option;
}

let succeeded r = r.status = Returned

(* Hoisted out of the MSTORE8 case: [U256.of_int] allocates a fresh 16-limb
   array per call, and MSTORE8 sits on the memcpy-style loops solc emits. *)
let byte_mask = U256.of_int 0xff

type call_kind = Call | Callcode | Delegatecall | Staticcall

let call_kind_to_string = function
  | Call -> "CALL"
  | Callcode -> "CALLCODE"
  | Delegatecall -> "DELEGATECALL"
  | Staticcall -> "STATICCALL"

type call_event = {
  kind : call_kind;
  depth : int;
  caller : Address.t;
  initiator : Address.t;
  code_address : Address.t;
  context_address : Address.t;
  input : string;
  value : U256.t;
  gas_limit : int;
}

type tracer = {
  on_step : depth:int -> pc:int -> Opcode.t -> unit;
  on_call : call_event -> unit;
  on_call_result : call_event -> status -> unit;
  on_sload : Address.t -> U256.t -> U256.t -> unit;
  on_sstore : Address.t -> U256.t -> U256.t -> unit;
  on_create : creator:Address.t -> created:Address.t -> init_code:string -> unit;
}

let no_tracer =
  {
    on_step = (fun ~depth:_ ~pc:_ _ -> ());
    on_call = (fun _ -> ());
    on_call_result = (fun _ _ -> ());
    on_sload = (fun _ _ _ -> ());
    on_sstore = (fun _ _ _ -> ());
    on_create = (fun ~creator:_ ~created:_ ~init_code:_ -> ());
  }

(* The fuel watchdog.  Unlike [step_limit] — which bounds one [execute]
   and fails the frame from inside the interpreter — fuel is shared by
   every emulation of an analysis item and aborts by exception, escaping
   [execute] entirely (the step loop only intercepts its own control
   exceptions, so anything a tracer raises propagates to the caller). *)
type fuel = { f_budget : int; mutable f_remaining : int }

exception Fuel_exhausted of { budget : int }

let fuel n =
  if n <= 0 then invalid_arg "Interp.fuel: budget must be > 0";
  { f_budget = n; f_remaining = n }

let fuel_remaining f = f.f_remaining

let guard_fuel f tracer =
  {
    tracer with
    on_step =
      (fun ~depth ~pc op ->
        if f.f_remaining <= 0 then raise (Fuel_exhausted { budget = f.f_budget });
        f.f_remaining <- f.f_remaining - 1;
        tracer.on_step ~depth ~pc op);
  }

type call_params = {
  caller : Address.t;
  code_address : Address.t;
  context_address : Address.t;
  origin : Address.t;
  gas_price : U256.t;
  value : U256.t;
  apparent_value : U256.t;
  input : string;
  gas : int;
  is_static : bool;
  depth : int;
}

let make_call ?(origin = Address.zero) ?(gas_price = U256.zero)
    ?(value = U256.zero) ?(gas = 30_000_000) ?(is_static = false) ~caller
    ~target ~input () =
  {
    caller;
    code_address = target;
    context_address = target;
    origin = (if Address.equal origin Address.zero then caller else origin);
    gas_price;
    value;
    apparent_value = value;
    input;
    gas;
    is_static;
    depth = 0;
  }

(* Internal control flow of a frame. *)
exception Abort of error (* exceptional halt: consumes all frame gas *)
exception Halt of status * string (* STOP/RETURN/REVERT/SELFDESTRUCT *)

let max_depth = 1024
let max_mem_offset = 0x3fff_ffff

type frame_ctx = {
  host : Host.t;
  tracer : tracer;
  steps : int ref;
  step_limit : int;
  logs_acc : log_entry list ref;
}

let to_mem_offset v =
  match U256.to_int v with
  | Some n when n <= max_mem_offset -> n
  | _ -> raise (Abort Out_of_gas)

(* Offsets used only to index immutable data (calldata, code): anything
   beyond the data reads as zeros, so huge offsets are fine. *)
let to_data_offset v =
  match U256.to_int v with Some n -> n | None -> max_int / 2

let word_count n = (n + 31) / 32

let transfer_balance host ~from_ ~to_ value =
  if not (U256.is_zero value) then begin
    let from_balance = host.Host.get_balance from_ in
    if U256.lt from_balance value then raise (Abort Insufficient_balance);
    host.Host.set_balance from_ (U256.sub from_balance value);
    host.Host.set_balance to_ (U256.add (host.Host.get_balance to_) value)
  end

let rec exec_frame ctx (params : call_params) : result =
  let host = ctx.host in
  let code = host.Host.get_code params.code_address in
  let gas_left = ref params.gas in
  let finish status data =
    {
      status;
      return_data = data;
      gas_used = params.gas - !gas_left;
      logs = [];
      created = None;
    }
  in
  if String.length code = 0 then finish Returned ""
  else begin
    let stack = Machine.Stack.create () in
    let memory = Machine.Memory.create () in
    let returndata = ref "" in
    let pc = ref 0 in
    let code_len = String.length code in
    let jumpdests = Disasm.jumpdest_table code in
    let charge g = if !gas_left < g then raise (Abort Out_of_gas) else gas_left := !gas_left - g in
    let charge_memory ~offset ~len =
      charge (Machine.Memory.expansion_cost memory ~offset ~len);
      Machine.Memory.ensure memory ~offset ~len
    in
    let push = Machine.Stack.push stack in
    let pop () = Machine.Stack.pop stack in
    let pop_int_mem () = to_mem_offset (pop ()) in
    let push_bool b = push (if b then U256.one else U256.zero) in
    let require_not_static op =
      if params.is_static then raise (Abort (Static_write op))
    in
    let binop f =
      let a = pop () in
      let b = pop () in
      push (f a b)
    in
    let cmp f =
      let a = pop () in
      let b = pop () in
      push_bool (f a b)
    in
    (try
       while !pc < code_len do
         incr ctx.steps;
         if !(ctx.steps) > ctx.step_limit then raise (Abort Step_limit_exceeded);
         let op = Opcode.of_byte (Char.code code.[!pc]) in
         ctx.tracer.on_step ~depth:params.depth ~pc:!pc op;
         charge (Gas.base_cost op);
         let next_pc = ref (!pc + 1 + Opcode.push_size op) in
         (match op with
         | Opcode.STOP -> raise (Halt (Returned, ""))
         | ADD -> binop U256.add
         | MUL -> binop U256.mul
         | SUB -> binop U256.sub
         | DIV -> binop U256.div
         | SDIV -> binop U256.sdiv
         | MOD -> binop U256.rem
         | SMOD -> binop U256.smod
         | ADDMOD ->
             let a = pop () in
             let b = pop () in
             let m = pop () in
             push (U256.addmod a b m)
         | MULMOD ->
             let a = pop () in
             let b = pop () in
             let m = pop () in
             push (U256.mulmod a b m)
         | EXP ->
             let base = pop () in
             let e = pop () in
             charge (Gas.exp_byte * ((U256.num_bits e + 7) / 8));
             push (U256.exp base e)
         | SIGNEXTEND ->
             let k = pop () in
             let v = pop () in
             let k = match U256.to_int k with Some n -> n | None -> 31 in
             push (U256.sign_extend v k)
         | LT -> cmp U256.lt
         | GT -> cmp U256.gt
         | SLT -> cmp U256.slt
         | SGT -> cmp U256.sgt
         | EQ -> cmp U256.equal
         | ISZERO -> push_bool (U256.is_zero (pop ()))
         | AND -> binop U256.logand
         | OR -> binop U256.logor
         | XOR -> binop U256.logxor
         | NOT -> push (U256.lognot (pop ()))
         | BYTE ->
             let i = pop () in
             let v = pop () in
             let i = match U256.to_int i with Some n -> n | None -> 32 in
             push (U256.byte_at v i)
         | SHL ->
             let n = pop () in
             let v = pop () in
             push (U256.shift_left v (Option.value ~default:256 (U256.to_int n)))
         | SHR ->
             let n = pop () in
             let v = pop () in
             push (U256.shift_right v (Option.value ~default:256 (U256.to_int n)))
         | SAR ->
             let n = pop () in
             let v = pop () in
             push
               (U256.shift_right_arith v
                  (Option.value ~default:256 (U256.to_int n)))
         | KECCAK256 ->
             let off = pop_int_mem () in
             let len = pop_int_mem () in
             charge (Gas.keccak_word * word_count len);
             charge_memory ~offset:off ~len;
             push
               (U256.of_bytes_be
                  (Keccak.digest (Machine.Memory.load_slice memory ~offset:off ~len)))
         | ADDRESS -> push (Address.to_u256 params.context_address)
         | BALANCE -> push (host.Host.get_balance (Address.of_u256 (pop ())))
         | ORIGIN -> push (Address.to_u256 params.origin)
         | CALLER -> push (Address.to_u256 params.caller)
         | CALLVALUE -> push params.apparent_value
         | CALLDATALOAD ->
             let off = to_data_offset (pop ()) in
             push (U256.of_bytes_be (Hexutil.slice params.input off 32))
         | CALLDATASIZE -> push (U256.of_int (String.length params.input))
         | CALLDATACOPY ->
             let dest = pop_int_mem () in
             let src = to_data_offset (pop ()) in
             let len = pop_int_mem () in
             charge (Gas.copy_word * word_count len);
             charge_memory ~offset:dest ~len;
             Machine.Memory.store_slice memory ~offset:dest
               (Hexutil.slice params.input src len)
         | CODESIZE -> push (U256.of_int code_len)
         | CODECOPY ->
             let dest = pop_int_mem () in
             let src = to_data_offset (pop ()) in
             let len = pop_int_mem () in
             charge (Gas.copy_word * word_count len);
             charge_memory ~offset:dest ~len;
             Machine.Memory.store_slice memory ~offset:dest
               (Hexutil.slice code src len)
         | GASPRICE -> push params.gas_price
         | EXTCODESIZE ->
             push
               (U256.of_int
                  (String.length (host.Host.get_code (Address.of_u256 (pop ())))))
         | EXTCODECOPY ->
             let addr = Address.of_u256 (pop ()) in
             let dest = pop_int_mem () in
             let src = to_data_offset (pop ()) in
             let len = pop_int_mem () in
             charge (Gas.copy_word * word_count len);
             charge_memory ~offset:dest ~len;
             Machine.Memory.store_slice memory ~offset:dest
               (Hexutil.slice (host.Host.get_code addr) src len)
         | RETURNDATASIZE -> push (U256.of_int (String.length !returndata))
         | RETURNDATACOPY ->
             let dest = pop_int_mem () in
             let src = to_data_offset (pop ()) in
             let len = pop_int_mem () in
             if src + len > String.length !returndata then
               raise (Abort Return_data_out_of_bounds);
             charge (Gas.copy_word * word_count len);
             charge_memory ~offset:dest ~len;
             Machine.Memory.store_slice memory ~offset:dest
               (String.sub !returndata src len)
         | EXTCODEHASH ->
             let addr = Address.of_u256 (pop ()) in
             if not (host.Host.account_exists addr) then push U256.zero
             else push (U256.of_bytes_be (host.Host.get_code_hash addr))
         | BLOCKHASH ->
             let height = pop () in
             let current = host.Host.block.Host.number in
             (match U256.to_int height with
             | Some h when h < current && current - h <= 256 ->
                 push (host.Host.block.Host.block_hash h)
             | _ -> push U256.zero)
         | COINBASE -> push (Address.to_u256 host.Host.block.Host.coinbase)
         | TIMESTAMP -> push (U256.of_int host.Host.block.Host.timestamp)
         | NUMBER -> push (U256.of_int host.Host.block.Host.number)
         | PREVRANDAO -> push host.Host.block.Host.prev_randao
         | GASLIMIT -> push (U256.of_int host.Host.block.Host.gas_limit)
         | CHAINID -> push host.Host.block.Host.chain_id
         | SELFBALANCE -> push (host.Host.get_balance params.context_address)
         | BASEFEE -> push host.Host.block.Host.base_fee
         | POP -> ignore (pop ())
         | MLOAD ->
             let off = pop_int_mem () in
             charge_memory ~offset:off ~len:32;
             push (Machine.Memory.load_word memory off)
         | MSTORE ->
             let off = pop_int_mem () in
             let v = pop () in
             charge_memory ~offset:off ~len:32;
             Machine.Memory.store_word memory off v
         | MSTORE8 ->
             let off = pop_int_mem () in
             let v = pop () in
             charge_memory ~offset:off ~len:1;
             Machine.Memory.store_byte memory off
               (Option.value ~default:0 (U256.to_int (U256.logand v byte_mask)))
         | SLOAD ->
             let slot = pop () in
             let v = host.Host.get_storage params.context_address slot in
             ctx.tracer.on_sload params.context_address slot v;
             push v
         | SSTORE ->
             require_not_static op;
             let slot = pop () in
             let v = pop () in
             let old = host.Host.get_storage params.context_address slot in
             charge (if U256.is_zero old && not (U256.is_zero v) then Gas.sstore_set else Gas.sstore_reset);
             ctx.tracer.on_sstore params.context_address slot v;
             host.Host.set_storage params.context_address slot v
         | JUMP ->
             let dest = pop () in
             let d = match U256.to_int dest with Some d -> d | None -> -1 in
             if not (Hashtbl.mem jumpdests d) then raise (Abort (Invalid_jump d));
             next_pc := d
         | JUMPI ->
             let dest = pop () in
             let cond = pop () in
             if not (U256.is_zero cond) then begin
               let d = match U256.to_int dest with Some d -> d | None -> -1 in
               if not (Hashtbl.mem jumpdests d) then raise (Abort (Invalid_jump d));
               next_pc := d
             end
         | PC -> push (U256.of_int !pc)
         | MSIZE -> push (U256.of_int (32 * Machine.Memory.size_words memory))
         | GAS -> push (U256.of_int !gas_left)
         | JUMPDEST -> ()
         | PUSH0 -> push U256.zero
         | PUSH n ->
             let avail = min n (code_len - !pc - 1) in
             let operand = if avail <= 0 then "" else String.sub code (!pc + 1) avail in
             push (U256.of_bytes_be operand)
         | DUP n -> Machine.Stack.dup stack n
         | SWAP n -> Machine.Stack.swap stack n
         | LOG n ->
             require_not_static op;
             let off = pop_int_mem () in
             let len = pop_int_mem () in
             let topics = List.init n (fun _ -> pop ()) in
             charge ((Gas.log_topic * n) + (Gas.log_byte * len));
             charge_memory ~offset:off ~len;
             let data = Machine.Memory.load_slice memory ~offset:off ~len in
             ctx.logs_acc :=
               { log_address = params.context_address; topics; data } :: !(ctx.logs_acc)
         | CREATE | CREATE2 ->
             require_not_static op;
             let value = pop () in
             let off = pop_int_mem () in
             let len = pop_int_mem () in
             let salt = if op = CREATE2 then Some (pop ()) else None in
             charge_memory ~offset:off ~len;
             if salt <> None then
               charge (Gas.keccak_word * word_count len);
             let init_code = Machine.Memory.load_slice memory ~offset:off ~len in
             let result = do_create ctx params gas_left ~value ~init_code ~salt in
             returndata :=
               (match result.status with Reverted -> result.return_data | _ -> "");
             (match (result.status, result.created) with
             | Returned, Some addr -> push (Address.to_u256 addr)
             | _ -> push U256.zero)
         | CALL | CALLCODE | DELEGATECALL | STATICCALL ->
             let gas_req = pop () in
             let addr = Address.of_u256 (pop ()) in
             let value =
               match op with CALL | CALLCODE -> pop () | _ -> U256.zero
             in
             if op = CALL && not (U256.is_zero value) then require_not_static op;
             let in_off = pop_int_mem () in
             let in_len = pop_int_mem () in
             let out_off = pop_int_mem () in
             let out_len = pop_int_mem () in
             charge_memory ~offset:in_off ~len:in_len;
             charge_memory ~offset:out_off ~len:out_len;
             if not (U256.is_zero value) then charge Gas.call_value_surcharge;
             if
               op = CALL
               && (not (U256.is_zero value))
               && not (host.Host.account_exists addr)
             then charge Gas.new_account_surcharge;
             let input = Machine.Memory.load_slice memory ~offset:in_off ~len:in_len in
             let available = !gas_left - (!gas_left / 64) in
             let forwarded =
               match U256.to_int gas_req with
               | Some g -> min g available
               | None -> available
             in
             charge forwarded;
             let forwarded =
               if U256.is_zero value then forwarded
               else forwarded + Gas.call_stipend
             in
             let kind =
               match op with
               | CALL -> Call
               | CALLCODE -> Callcode
               | DELEGATECALL -> Delegatecall
               | STATICCALL -> Staticcall
               | _ -> assert false
             in
             let result, refund =
               do_call ctx params ~kind ~target:addr ~value ~input
                 ~gas:forwarded
             in
             gas_left := !gas_left + refund;
             returndata := result.return_data;
             Machine.Memory.store_slice memory ~offset:out_off
               (Hexutil.take out_len result.return_data);
             push_bool (result.status = Returned)
         | RETURN ->
             let off = pop_int_mem () in
             let len = pop_int_mem () in
             charge_memory ~offset:off ~len;
             raise (Halt (Returned, Machine.Memory.load_slice memory ~offset:off ~len))
         | REVERT ->
             let off = pop_int_mem () in
             let len = pop_int_mem () in
             charge_memory ~offset:off ~len;
             raise (Halt (Reverted, Machine.Memory.load_slice memory ~offset:off ~len))
         | INVALID -> raise (Abort (Invalid_opcode 0xfe))
         | SELFDESTRUCT ->
             require_not_static op;
             let beneficiary = Address.of_u256 (pop ()) in
             host.Host.selfdestruct params.context_address ~beneficiary;
             raise (Halt (Returned, ""))
         | UNKNOWN b -> raise (Abort (Invalid_opcode b)));
         pc := !next_pc
       done;
       (* Fell off the end of code: implicit STOP. *)
       finish Returned ""
     with
    | Halt (status, data) -> finish status data
    | Abort err ->
        gas_left := 0;
        finish (Failed err) ""
    | Machine.Stack_underflow ->
        gas_left := 0;
        finish (Failed (Stack_underflow (Opcode.of_byte (Char.code code.[!pc])))) ""
    | Machine.Stack_overflow ->
        gas_left := 0;
        finish (Failed (Stack_overflow (Opcode.of_byte (Char.code code.[!pc])))) "")
  end

(* A message call out of a running frame.  Returns the callee result and the
   gas to refund to the caller. *)
and do_call ctx (params : call_params) ~kind ~target ~value ~input ~gas =
  let host = ctx.host in
  let event =
    {
      kind;
      depth = params.depth + 1;
      caller =
        (match kind with
        | Delegatecall -> params.caller
        | _ -> params.context_address);
      initiator = params.context_address;
      code_address = target;
      context_address =
        (match kind with
        | Call | Staticcall -> target
        | Callcode | Delegatecall -> params.context_address);
      input;
      value =
        (match kind with Delegatecall -> params.apparent_value | _ -> value);
      gas_limit = gas;
    }
  in
  ctx.tracer.on_call event;
  if params.depth + 1 > max_depth then begin
    let status = Failed Call_depth_exceeded in
    ctx.tracer.on_call_result event status;
    ({ status; return_data = ""; gas_used = gas; logs = []; created = None }, 0)
  end
  else begin
    let snapshot = host.Host.snapshot () in
    let failure err =
      host.Host.revert_to snapshot;
      let status = Failed err in
      ctx.tracer.on_call_result event status;
      ( { status; return_data = ""; gas_used = gas; logs = []; created = None },
        0 )
    in
    match
      if kind = Call && not (U256.is_zero value) then begin
        let balance = host.Host.get_balance params.context_address in
        if U256.lt balance value then Error Insufficient_balance
        else begin
          transfer_balance host ~from_:params.context_address ~to_:target value;
          Ok ()
        end
      end
      else Ok ()
    with
    | Error err -> failure err
    | Ok () ->
        let callee_params =
          {
            caller = event.caller;
            code_address = event.code_address;
            context_address = event.context_address;
            origin = params.origin;
            gas_price = params.gas_price;
            value = event.value;
            apparent_value = event.value;
            input;
            gas;
            is_static = params.is_static || kind = Staticcall;
            depth = params.depth + 1;
          }
        in
        let result = exec_frame ctx callee_params in
        (match result.status with
        | Returned -> ()
        | Reverted | Failed _ -> host.Host.revert_to snapshot);
        ctx.tracer.on_call_result event result.status;
        (result, gas - result.gas_used)
  end

and do_create ctx (params : call_params) gas_left ~value ~init_code ~salt =
  let host = ctx.host in
  let creator = params.context_address in
  let failed err =
    { status = Failed err; return_data = ""; gas_used = 0; logs = []; created = None }
  in
  if params.depth + 1 > max_depth then failed Call_depth_exceeded
  else begin
    let balance = host.Host.get_balance creator in
    if U256.lt balance value then failed Insufficient_balance
    else begin
      let nonce = host.Host.get_nonce creator in
      let address =
        match salt with
        | None -> Rlp.contract_address ~sender:creator ~nonce
        | Some s -> Rlp.create2_address ~sender:creator ~salt:s ~init_code
      in
      host.Host.set_nonce creator (nonce + 1);
      if
        String.length (host.Host.get_code address) > 0
        || host.Host.get_nonce address > 0
      then failed (Create_collision address)
      else begin
        let snapshot = host.Host.snapshot () in
        host.Host.set_nonce address 1;
        transfer_balance host ~from_:creator ~to_:address value;
        (* Forward all but 1/64 of remaining gas to the init frame. *)
        let forwarded = !gas_left - (!gas_left / 64) in
        gas_left := !gas_left - forwarded;
        let init_params =
          {
            caller = creator;
            code_address = address;
            context_address = address;
            origin = params.origin;
            gas_price = params.gas_price;
            value;
            apparent_value = value;
            input = "";
            gas = forwarded;
            is_static = false;
            depth = params.depth + 1;
          }
        in
        (* Install the init code at the new address so the frame's CODESIZE
           and CODECOPY see it; the deployed code later overwrites it. *)
        host.Host.create_account address ~code:init_code;
        let result = exec_frame ctx init_params in
        let refund g = gas_left := !gas_left + g in
        match result.status with
        | Returned ->
            let deployed = result.return_data in
            let size = String.length deployed in
            let deposit = Gas.code_deposit_byte * size in
            if size > Gas.max_code_size then begin
              host.Host.revert_to snapshot;
              failed (Code_too_large size)
            end
            else if result.gas_used + deposit > forwarded then begin
              host.Host.revert_to snapshot;
              failed Out_of_gas
            end
            else begin
              refund (forwarded - result.gas_used - deposit);
              host.Host.create_account address ~code:deployed;
              ctx.tracer.on_create ~creator ~created:address ~init_code;
              {
                status = Returned;
                return_data = "";
                gas_used = result.gas_used + deposit;
                logs = [];
                created = Some address;
              }
            end
        | Reverted ->
            host.Host.revert_to snapshot;
            refund (forwarded - result.gas_used);
            { result with created = None }
        | Failed _ ->
            host.Host.revert_to snapshot;
            { result with created = None }
      end
    end
  end

let run_top ?(tracer = no_tracer) ?(step_limit = 1_000_000) host k =
  let ctx = { host; tracer; steps = ref 0; step_limit; logs_acc = ref [] } in
  let result = k ctx in
  { result with logs = List.rev !(ctx.logs_acc) }

let execute ?tracer ?step_limit host (params : call_params) =
  run_top ?tracer ?step_limit host (fun ctx ->
      let snapshot = host.Host.snapshot () in
      if not (U256.is_zero params.value) then begin
        let balance = host.Host.get_balance params.caller in
        if U256.lt balance params.value then
          {
            status = Failed Insufficient_balance;
            return_data = "";
            gas_used = 0;
            logs = [];
            created = None;
          }
        else begin
          transfer_balance host ~from_:params.caller ~to_:params.context_address
            params.value;
          let result = exec_frame ctx params in
          (match result.status with
          | Returned -> ()
          | Reverted | Failed _ -> host.Host.revert_to snapshot);
          result
        end
      end
      else begin
        let result = exec_frame ctx params in
        (match result.status with
        | Returned -> ()
        | Reverted | Failed _ -> host.Host.revert_to snapshot);
        result
      end)

let create ?tracer ?step_limit ?(salt = None) host ~caller ~value ~init_code
    ~gas =
  run_top ?tracer ?step_limit host (fun ctx ->
      let params =
        {
          caller;
          code_address = caller;
          context_address = caller;
          origin = caller;
          gas_price = U256.zero;
          value = U256.zero;
          apparent_value = U256.zero;
          input = "";
          gas;
          is_static = false;
          depth = 0;
        }
      in
      let gas_ref = ref gas in
      let result = do_create ctx params gas_ref ~value ~init_code ~salt in
      { result with gas_used = gas - !gas_ref })
