type 'a t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  q : 'a Queue.t;
  mutable closed : bool;
}

let create () =
  {
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    q = Queue.create ();
    closed = false;
  }

let push t x =
  Mutex.lock t.mutex;
  Queue.add x t.q;
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

let close t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex

let pop t =
  Mutex.lock t.mutex;
  let rec await () =
    if not (Queue.is_empty t.q) then Some (Queue.pop t.q)
    else if t.closed then None
    else begin
      Condition.wait t.nonempty t.mutex;
      await ()
    end
  in
  let r = await () in
  Mutex.unlock t.mutex;
  r

let length t =
  Mutex.lock t.mutex;
  let n = Queue.length t.q in
  Mutex.unlock t.mutex;
  n
