int g[4];
int main(void)
{
  int a = 3;
  int k = 2;
  int y = ((int)&a) * 0;
  g[0] = 1;
  return a + y + k;
}
