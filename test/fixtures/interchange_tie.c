/* A transpose copy whose two loop orders tie under the interchange
   cost model: either order has one stride-1 and one strided reference
   innermost, so the estimate of the best reordering equals the
   identity's. */
float a[48][48];
float b[48][48];

int main()
{
  int i, j;
  float s;
  for (i = 0; i < 48; i++)
    for (j = 0; j < 48; j++)
      b[i][j] = (float)(i - j);
  for (i = 0; i < 48; i++)
    for (j = 0; j < 48; j++)
      a[i][j] = b[j][i];
  s = 0.0f;
  for (i = 0; i < 48; i++)
    s = s + a[i][3] + a[5][i];
  printf("%g\n", s);
  return 0;
}
