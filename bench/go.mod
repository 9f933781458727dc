module pbtreebench

go 1.22

require pbtree v0.0.0

replace pbtree => ../
