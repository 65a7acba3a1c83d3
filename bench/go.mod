module ecstore/bench

go 1.24

require ecstore v0.0.0

replace ecstore => ../
