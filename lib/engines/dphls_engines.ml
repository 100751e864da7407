(** The pluggable-engine layer: the backend contract ({!Engine_intf}),
    the shipped backends ({!Backends}), and the registry + auto-dispatch
    policy ({!Engines}). Requests select engines through {!Engines} by
    name; new backends implement {!Engine_intf.S} and join
    {!Engines.all}. *)

module Engine_intf = Engine_intf
module Backends = Backends
module Engines = Engines
