type packed = Packed : 'p Kernel.t * 'p -> packed

let name (Packed (k, _)) = k.Kernel.name
let id (Packed (k, _)) = k.Kernel.id
let n_layers (Packed (k, _)) = k.Kernel.n_layers
let tb_bits (Packed (k, _)) = k.Kernel.tb_bits
let traits (Packed (k, _)) = k.Kernel.traits
let objective (Packed (k, _)) = k.Kernel.objective
let banding (Packed (k, _)) = k.Kernel.banding
let has_traceback (Packed (k, p)) = Kernel.has_traceback k p
let validate (Packed (k, p)) = Kernel.validate k p
let datapath (Packed (k, p)) = k.Kernel.datapath p
